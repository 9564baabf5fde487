package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// Every state bit maps to the access unit its marking methods mark: a prf.val
// word to its register, a prf.ready bit to its register's ready bit, the
// exec words of a slot to the slot, and the operand words of a scheduler slot
// to the slot. No other bit has a unit, and every unit holds a bit.
func TestAccessUnitMap(t *testing.T) {
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	nth := map[string]int{} // element name -> words of that name seen so far
	var reached AccessMask
	for e, el := range p.State().Elements() {
		i := uint64(nth[el.Name])
		nth[el.Name]++
		for b := uint8(0); b < el.Bits; b++ {
			want, wantOK := uint64(0), true
			switch el.Name {
			case "prf.val":
				want = unitRegVal + i
			case "prf.ready":
				want = unitRegReady + 64*i + uint64(b)
			case "exec.val", "exec.tag", "exec.rob":
				want = unitExec + i
			case "sched.robIdx", "sched.src1", "sched.src2", "sched.src3":
				want = unitSched + i
			default:
				wantOK = false
			}
			u, ok := p.AccessUnit(BitRef{Elem: e, Bit: b})
			if ok != wantOK || ok && u != want {
				t.Fatalf("%s[%d] bit %d: unit %d, %v; want %d, %v", el.Name, i, b, u, ok, want, wantOK)
			}
			if ok {
				reached.mark(u)
			}
		}
	}
	for u := uint64(0); u < AccessUnits; u++ {
		if !reached.Has(u) {
			t.Errorf("access unit %d holds no state bit", u)
		}
	}
}

// The exactness argument of the µarch campaign's untouched-unit rule, checked
// on the pipeline itself: Cycle reaches an access unit only through the
// methods that mark it. At points across every benchmark, a fork flips every
// bit of every unit that marking saw untouched over the next w cycles. It
// must step exactly as the golden run does: after w cycles, with the flips
// undone, its state, status, counters and exec-window bookkeeping equal the
// golden run's. The short window catches units the machine reads only now
// and then, such as a scheduler slot waiting on a load.
func TestUntouchedUnitsStayFlipped(t *testing.T) {
	for _, bench := range workload.Benchmarks() {
		master := newBenchPipeline(t, bench, DefaultConfig())
		master.RunCycles(2000)
		for point := 0; point < 20; point++ {
			for _, w := range []uint64{16, 256} {
				golden := master.Clone()
				var touched AccessMask
				golden.MarkAccess(&touched)
				golden.RunCycles(w)

				faulty := master.Clone()
				var flips []BitRef
				for e, el := range faulty.State().Elements() {
					for b := uint8(0); b < el.Bits; b++ {
						ref := BitRef{Elem: e, Bit: b}
						if u, ok := faulty.AccessUnit(ref); ok && !touched.Has(u) {
							flips = append(flips, ref)
						}
					}
				}
				for _, ref := range flips {
					faulty.State().Flip(ref)
				}
				faulty.RunCycles(w)
				for _, ref := range flips {
					faulty.State().Flip(ref)
				}

				at := func() string {
					return fmt.Sprintf("%s, cycle %d, window %d, %d bits flipped", bench, master.Cycles(), w, len(flips))
				}
				if faulty.Status() != golden.Status() || faulty.Stats() != golden.Stats() ||
					faulty.exec.busy != golden.exec.busy || faulty.exec.doneAt != golden.exec.doneAt {
					t.Fatalf("%s: status, counters or exec-window bookkeeping differ from the golden run", at())
				}
				golden.State().reindex() // bind the packed words
				ge := golden.State().Elements()
				for i, fe := range faulty.State().Elements() {
					if got, want := *fe.word&fe.Mask(), *ge[i].word&ge[i].Mask(); got != want {
						t.Fatalf("%s: %s (element %d) = %#x, golden %#x", at(), fe.Name, i, got, want)
					}
				}
			}
			master.RunCycles(997)
		}
	}
}
