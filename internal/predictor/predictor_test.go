package predictor

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(10)
	pc := uint64(0x1000)
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("bimodal failed to learn always-taken")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Error("bimodal failed to learn always-not-taken")
	}
}

func TestBimodalHysteresis(t *testing.T) {
	b := NewBimodal(10)
	pc := uint64(0x2000)
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	// A single not-taken must not flip a saturated counter.
	b.Update(pc, false)
	if !b.Predict(pc) {
		t.Error("single contrary outcome flipped saturated counter")
	}
}

// globalHistory is an explicit 8-bit global history register, kept by the
// caller as the pipeline keeps its own.
type globalHistory uint64

func (h *globalHistory) push(taken bool) {
	*h <<= 1
	if taken {
		*h |= 1
	}
	*h &= 0xFF
}

// withHistory adapts a history-indexed update to the (pc, taken) form. The
// returned func keeps its own globalHistory and shifts each outcome into it
// after the update.
func withHistory(update func(pc uint64, taken bool, hist uint64)) func(pc uint64, taken bool) {
	var h globalHistory
	return func(pc uint64, taken bool) {
		update(pc, taken, uint64(h))
		h.push(taken)
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	g := NewGshare(12)
	var h globalHistory
	pc := uint64(0x3000)
	// Alternating pattern T,N,T,N is history-predictable.
	taken := true
	// Train.
	for i := 0; i < 200; i++ {
		g.UpdateH(pc, taken, uint64(h))
		h.push(taken)
		taken = !taken
	}
	// Measure.
	correct := 0
	for i := 0; i < 100; i++ {
		if g.PredictH(pc, uint64(h)) == taken {
			correct++
		}
		g.UpdateH(pc, taken, uint64(h))
		h.push(taken)
		taken = !taken
	}
	if correct < 95 {
		t.Errorf("gshare predicted alternating pattern at %d%%, want >=95%%", correct)
	}
}

func TestCombinedBeatsComponentsOnMix(t *testing.T) {
	// A workload with one strongly-biased branch and one alternating
	// branch: the combiner should track both well.
	c := NewCombined(12)
	var h globalHistory
	pcBias, pcAlt := uint64(0x4000), uint64(0x5004)
	alt := true
	correct, total := 0, 0
	for i := 0; i < 2000; i++ {
		if c.PredictH(pcBias, uint64(h)) == true {
			correct++
		}
		total++
		c.UpdateH(pcBias, true, uint64(h))
		h.push(true)

		if c.PredictH(pcAlt, uint64(h)) == alt {
			correct++
		}
		total++
		c.UpdateH(pcAlt, alt, uint64(h))
		h.push(alt)
		alt = !alt
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Errorf("combined accuracy %.3f, want >= 0.95", acc)
	}
}

func TestCombinedAccuracyOnBiasedRandom(t *testing.T) {
	// 95 % biased random branches across many PCs: expect accuracy near
	// the bias, matching the paper's ">95 % of branch instances".
	c := NewCombined(12)
	var h globalHistory
	rng := rand.New(rand.NewSource(5))
	correct, total := 0, 0
	for i := 0; i < 50000; i++ {
		pc := uint64(0x1000 + (rng.Intn(64) * 4))
		taken := rng.Float64() < 0.95
		if c.PredictH(pc, uint64(h)) == taken {
			correct++
		}
		total++
		c.UpdateH(pc, taken, uint64(h))
		h.push(taken)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.90 {
		t.Errorf("combined accuracy %.3f on 95%%-biased stream, want >= 0.90", acc)
	}
}

func TestBTBHitAfterUpdate(t *testing.T) {
	b := NewBTB(6, 2)
	if _, hit := b.Lookup(0x1000); hit {
		t.Error("cold BTB hit")
	}
	b.Update(0x1000, 0x2000)
	target, hit := b.Lookup(0x1000)
	if !hit || target != 0x2000 {
		t.Errorf("lookup = %#x,%v", target, hit)
	}
	// Retarget.
	b.Update(0x1000, 0x3000)
	if target, _ := b.Lookup(0x1000); target != 0x3000 {
		t.Errorf("retarget failed: %#x", target)
	}
}

func TestBTBEviction(t *testing.T) {
	b := NewBTB(2, 2) // 4 sets, 2 ways
	// Three PCs mapping to the same set (stride = sets*4 = 16).
	pcs := []uint64{0x1000, 0x1010, 0x1020}
	b.Update(pcs[0], 1)
	b.Update(pcs[1], 2)
	// Touch pcs[0] so pcs[1] is LRU.
	if _, hit := b.Lookup(pcs[0]); !hit {
		t.Fatal("miss on resident entry")
	}
	b.Update(pcs[2], 3)
	if _, hit := b.Lookup(pcs[1]); hit {
		t.Error("LRU entry not evicted")
	}
	if _, hit := b.Lookup(pcs[0]); !hit {
		t.Error("MRU entry evicted")
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(8)
	if _, ok := r.Pop(); ok {
		t.Error("pop of empty RAS succeeded")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	if r.Depth() != 3 {
		t.Errorf("depth = %d", r.Depth())
	}
	for want := uint64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Errorf("pop = %d,%v want %d", got, ok, want)
		}
	}
}

func TestRASWrapAround(t *testing.T) {
	r := NewRAS(4)
	for i := uint64(1); i <= 6; i++ {
		r.Push(i)
	}
	// The newest 4 survive: 6,5,4,3.
	for want := uint64(6); want >= 3; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Errorf("pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS deeper than capacity")
	}
}

func TestJRSConfidenceLifecycle(t *testing.T) {
	j := NewJRS(JRSConfig{TableBits: 8, CounterMax: 15, Threshold: 15})
	pc := uint64(0x1000)
	if j.Confident(pc) {
		t.Error("cold JRS reports high confidence")
	}
	for i := 0; i < 14; i++ {
		j.Update(pc, true)
	}
	if j.Confident(pc) {
		t.Error("high confidence before saturation")
	}
	j.Update(pc, true)
	if !j.Confident(pc) {
		t.Error("not confident after saturation")
	}
	// A single misprediction resets.
	j.Update(pc, false)
	if j.Confident(pc) {
		t.Error("confidence survived a misprediction")
	}
}

func TestJRSDefaults(t *testing.T) {
	j := NewJRS(JRSConfig{})
	pc := uint64(0x42000)
	for i := 0; i < 15; i++ {
		j.Update(pc, true)
	}
	if !j.Confident(pc) {
		t.Error("defaults: expected saturation at 15 correct predictions")
	}
}

func TestJRSSelectivity(t *testing.T) {
	// On a branch that mispredicts 10% of the time, the fraction of
	// predictions labelled high-confidence must be well below that of an
	// always-correct branch: that selectivity is what makes JRS
	// conservative (the paper's stated reason coverage drops in Fig 5).
	j := NewJRS(JRSConfig{TableBits: 8, CounterMax: 15, Threshold: 15})
	rng := rand.New(rand.NewSource(9))
	pcNoisy, pcClean := uint64(0x1000), uint64(0x2004) // distinct table entries
	noisyHigh, cleanHigh := 0, 0
	const n = 10000
	for i := 0; i < n; i++ {
		if j.Confident(pcNoisy) {
			noisyHigh++
		}
		j.Update(pcNoisy, rng.Float64() < 0.9)
		if j.Confident(pcClean) {
			cleanHigh++
		}
		j.Update(pcClean, true)
	}
	if cleanHigh < n*9/10 {
		t.Errorf("clean branch high-confidence rate %d/%d too low", cleanHigh, n)
	}
	if noisyHigh > n/2 {
		t.Errorf("noisy branch high-confidence rate %d/%d too high", noisyHigh, n)
	}
}

func TestOracleEstimators(t *testing.T) {
	var p Perfect
	if !p.Confident(0x1234) {
		t.Error("Perfect must always be confident")
	}
	p.Update(0, false)
}

func TestPredictHUpdateHConsistency(t *testing.T) {
	// External-history prediction must train the same table entries it
	// predicts with: a pattern presented under a fixed history register
	// becomes perfectly predictable.
	g := NewGshare(10)
	pc := uint64(0x7000)
	hist := uint64(0xA5)
	for i := 0; i < 10; i++ {
		g.UpdateH(pc, true, hist)
	}
	if !g.PredictH(pc, hist) {
		t.Error("gshare PredictH did not learn under fixed history")
	}

	c := NewCombined(10)
	for i := 0; i < 30; i++ {
		c.UpdateH(pc, i%2 == 0, uint64(i%2))
	}
	// Pattern keyed entirely by history bit: both phases predictable.
	if !c.PredictH(pc, 0) {
		t.Error("combined PredictH(hist=0) wrong")
	}
}

// checkCopyFrom pins the only way a predictor is copied: CopyFrom into a
// fresh value (a new pipeline Clone) and into a dirtied value of the same
// shape (a recycled fork). Each copy must equal build()'s source field for
// field, so a field CopyFrom forgets fails here even when timing would not
// show it, and mutating the copy must leave the source unchanged.
func checkCopyFrom[T any](t *testing.T, build func() *T, copyFrom func(dst, src *T), mutate func(*T)) {
	t.Helper()
	dirty := build()
	mutate(dirty)
	for _, dst := range []*T{new(T), dirty} {
		src := build()
		copyFrom(dst, src)
		if !reflect.DeepEqual(dst, src) {
			t.Errorf("%T: copy differs from its source:\n got %+v\nwant %+v", dst, *dst, *src)
		}
		mutate(dst)
		if !reflect.DeepEqual(src, build()) {
			t.Errorf("%T: mutating the copy changed the source", dst)
		}
	}
}

func TestCopyFrom(t *testing.T) {
	pcs := []uint64{0x100, 0x104, 0x1F0, 0x2A8}
	train := func(update func(pc uint64, taken bool)) {
		for i, pc := range pcs {
			for k := 0; k < 3; k++ {
				update(pc, i%2 == 0)
			}
		}
	}
	untrain := func(update func(pc uint64, taken bool)) {
		for i, pc := range pcs {
			for k := 0; k < 3; k++ {
				update(pc, i%2 != 0)
			}
		}
	}

	checkCopyFrom(t,
		func() *Bimodal { b := NewBimodal(8); train(b.Update); return b },
		(*Bimodal).CopyFrom, func(b *Bimodal) { untrain(b.Update) })
	checkCopyFrom(t,
		func() *Gshare { g := NewGshare(8); train(withHistory(g.UpdateH)); return g },
		(*Gshare).CopyFrom, func(g *Gshare) { untrain(withHistory(g.UpdateH)) })
	checkCopyFrom(t,
		func() *Combined { c := NewCombined(8); train(withHistory(c.UpdateH)); return c },
		(*Combined).CopyFrom, func(c *Combined) { untrain(withHistory(c.UpdateH)) })
	checkCopyFrom(t,
		func() *BTB {
			b := NewBTB(4, 2)
			for _, pc := range pcs {
				b.Update(pc, pc+0x40)
			}
			return b
		},
		(*BTB).CopyFrom, func(b *BTB) {
			for _, pc := range pcs {
				b.Update(pc, pc+0x80)
			}
		})
	checkCopyFrom(t,
		func() *RAS { r := NewRAS(4); r.Push(1); r.Push(2); return r },
		(*RAS).CopyFrom, func(r *RAS) { r.Pop(); r.Push(7); r.Push(8) })
	checkCopyFrom(t,
		func() *JRS { j := NewJRS(JRSConfig{TableBits: 6}); train(j.Update); return j },
		(*JRS).CopyFrom, func(j *JRS) {
			for _, pc := range pcs {
				j.Update(pc, false)
			}
		})
	checkCopyFrom(t,
		func() *MemDep {
			m := NewMemDep(8)
			for _, pc := range pcs[:2] {
				m.TrainViolation(pc)
			}
			return m
		},
		(*MemDep).CopyFrom, func(m *MemDep) {
			m.Decay()
			m.TrainViolation(pcs[3])
		})
}
