package pipeline

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// Property tests on the pieces fault injection leans on hardest: the packed
// control words that flips mutate, and the state space sampling machinery.

func TestCtlUnpackNeverPanics(t *testing.T) {
	// Any 52-bit pattern — i.e. any corrupted control word — must unpack
	// to SOME instruction (possibly OpInvalid) without panicking.
	f := func(w uint64) bool {
		inst := unpackCtl(w & (1<<ctlBits - 1))
		_ = inst.String()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50000}); err != nil {
		t.Error(err)
	}
}

func TestCtlPackIsInverseOfUnpackOnValid(t *testing.T) {
	// For words whose opcode field is valid, pack(unpack(w)) preserves
	// the fields the instruction's format actually uses.
	f := func(w uint64) bool {
		w &= 1<<ctlBits - 1
		w &^= 1 << ctlFetchFaultBit
		inst := unpackCtl(w)
		if inst.Op == 0 {
			return true // invalid opcodes are not round-trippable
		}
		again := unpackCtl(packCtl(inst))
		return again == inst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50000}); err != nil {
		t.Error(err)
	}
}

func TestNthBitBijectionSample(t *testing.T) {
	// NthBit must hit every element at least once when sweeping the flat
	// index space coarsely, and adjacent indices map to adjacent bits.
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	s := p.State()
	total := s.TotalBits(false)

	seen := make(map[int]bool)
	// Stride 3 is below the smallest element width, so every element
	// must be visited.
	for n := uint64(0); n < total; n += 3 {
		ref, ok := s.NthBit(n)
		if !ok {
			t.Fatalf("NthBit(%d) failed", n)
		}
		if int(ref.Bit) >= int(s.Elements()[ref.Elem].Bits) {
			t.Fatalf("bit %d outside element %s width %d",
				ref.Bit, s.Elements()[ref.Elem].Name, s.Elements()[ref.Elem].Bits)
		}
		seen[ref.Elem] = true
	}
	if len(seen) != len(s.Elements()) {
		t.Errorf("sweep touched only %d of %d elements", len(seen), len(s.Elements()))
	}
}

func TestFlipIsInvolution(t *testing.T) {
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	p.RunCycles(1000)
	s := p.State()
	rng := rand.New(rand.NewSource(8))
	before := stateWords(s)
	// Any sequence of flips applied twice in reverse is the identity.
	var refs []BitRef
	for i := 0; i < 100; i++ {
		ref, _ := s.NthBit(uint64(rng.Int63n(int64(s.TotalBits(false)))))
		refs = append(refs, ref)
		s.Flip(ref)
	}
	for i := len(refs) - 1; i >= 0; i-- {
		s.Flip(refs[i])
	}
	after := stateWords(s)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("state word %d not restored", i)
		}
	}
}

// stateWords copies every state word: the packed backing, then the scalar
// words in element order.
func stateWords(s *StateSpace) []uint64 {
	s.reindex()
	out := slices.Clone(s.packed)
	for _, idx := range s.stragglers {
		out = append(out, *s.elems[idx].word)
	}
	return out
}

func TestLatchFractionPlausible(t *testing.T) {
	// Section 5.1.2 relies on latches being a substantial share of the
	// state. Sanity-check the ratio stays in a hardware-plausible band.
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	s := p.State()
	frac := float64(s.TotalBits(true)) / float64(s.TotalBits(false))
	if frac < 0.4 || frac > 0.95 {
		t.Errorf("latch fraction %.2f outside plausible band", frac)
	}
	t.Logf("latch bits: %.1f%% of %d", 100*frac, s.TotalBits(false))
}
