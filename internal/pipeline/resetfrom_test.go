package pipeline

import (
	"testing"

	"repro/internal/workload"
)

// ResetFrom is the clone pool's reset path: a recycled fork must be
// indistinguishable from a fresh Clone of the master, including the state
// that is NOT in the hashed state space (caches, predictors, confidence
// estimator), whose divergence would show up as timing drift.
func TestResetFromMatchesClone(t *testing.T) {
	master := newBenchPipeline(t, workload.Vortex, DefaultConfig())
	master.RunCycles(5000)

	// A stale fork: cloned earlier, run far ahead, state thoroughly dirty.
	fork := master.Clone()
	fork.RunCycles(3000)
	ref, _ := fork.State().NthBit(777)
	fork.State().Flip(ref)
	fork.Memory().WriteQ(0x10000, 0xBAD) // dirty a page too

	master.RunCycles(1000) // master moves on as well

	fork.ResetFrom(master)
	if fork.State().Hash() != master.State().Hash() {
		t.Fatal("reset fork's state hash differs from master")
	}
	if !fork.Memory().Equal(master.Memory()) {
		t.Fatal("reset fork's memory differs from master")
	}

	// The reset fork must track a genuine clone cycle for cycle: any copy
	// miss in the unhashed structures surfaces as timing divergence here.
	clone := master.Clone()
	for i := 0; i < 30; i++ {
		fork.RunCycles(100)
		clone.RunCycles(100)
		if fork.State().Hash() != clone.State().Hash() {
			t.Fatalf("reset fork diverged from clone after %d cycles", (i+1)*100)
		}
		if fork.Cycles() != clone.Cycles() || fork.Retired() != clone.Retired() {
			t.Fatalf("counters diverged after %d cycles: cycles %d/%d retired %d/%d",
				(i+1)*100, fork.Cycles(), clone.Cycles(), fork.Retired(), clone.Retired())
		}
	}
	if !fork.Memory().Equal(clone.Memory()) {
		t.Fatal("reset fork's memory diverged from clone")
	}

	// Independence: mutating the reset fork must not touch the master.
	before := master.State().Hash()
	ref2, _ := fork.State().NthBit(12345)
	fork.State().Flip(ref2)
	fork.RunCycles(50)
	if master.State().Hash() != before {
		t.Fatal("mutating the reset fork changed the master")
	}
}

// Register-access marking belongs to the pipeline it was turned on for: a
// Clone of a marking pipeline runs unmarked, and ResetFrom turns off the
// marking a recycled fork had.
func TestForksDoNotMarkRegAccess(t *testing.T) {
	master := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	master.RunCycles(2000)
	var marked RegMask
	master.MarkRegAccess(&marked)

	clone := master.Clone()
	reset := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	var resetMarked RegMask
	reset.MarkRegAccess(&resetMarked)
	reset.ResetFrom(master)
	clone.RunCycles(500)
	reset.RunCycles(500)
	if marked != (RegMask{}) || resetMarked != (RegMask{}) {
		t.Fatalf("forks marked registers: clone %x, reset %x", marked, resetMarked)
	}

	master.RunCycles(500)
	if marked == (RegMask{}) {
		t.Fatal("the marking pipeline marked no register in 500 cycles")
	}
}

// ResetFrom has no branch that re-shapes a component, so it re-images only a
// pipeline built from the same Config; a mismatch is a bug and panics.
func TestResetFromRejectsOtherConfig(t *testing.T) {
	master := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Confidence = ConfidencePerfect
	other := newBenchPipeline(t, workload.Gzip, cfg)
	defer func() {
		if recover() == nil {
			t.Error("ResetFrom across configurations did not panic")
		}
	}()
	other.ResetFrom(master)
}
