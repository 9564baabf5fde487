// Allocation pins: the dynamic counterpart of restorelint's hotpathalloc
// analyzer. hotpathalloc proves statically that the //restorelint:hotpath
// functions are transitively allocation-free in steady state; the tests in
// this file pin the same property with testing.AllocsPerRun so a regression
// is caught even if it slips past the static engine (e.g. through a
// dynamic call the analyzer declines to follow).
package main

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func warmPipeline(t testing.TB) *pipeline.Pipeline {
	t.Helper()
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	p.RunCycles(5_000)
	if p.Status() != pipeline.StatusRunning {
		t.Fatal("pipeline stopped during warm-up")
	}
	return p
}

// TestPipelineStepAllocFree pins steady-state pipeline.Step at zero
// allocations per cycle. Before the scheduler's issue pass moved from
// sort.Slice to an in-place insertion sort over a fixed array, every cycle
// allocated the comparison closure; this test keeps that from coming back.
func TestPipelineStepAllocFree(t *testing.T) {
	p := warmPipeline(t)
	allocs := testing.AllocsPerRun(2_000, p.Step)
	if allocs != 0 {
		t.Fatalf("pipeline.Step allocated %.2f objects/op in steady state, want 0", allocs)
	}
}

// TestPipelineStepMarkingAllocFree pins the golden recorder's shape of the
// hot path: Step with register-access marking on must not allocate either.
func TestPipelineStepMarkingAllocFree(t *testing.T) {
	p := warmPipeline(t)
	var marked pipeline.RegMask
	p.MarkRegAccess(&marked)
	allocs := testing.AllocsPerRun(2_000, p.Step)
	if allocs != 0 {
		t.Fatalf("pipeline.Step with marking allocated %.2f objects/op in steady state, want 0", allocs)
	}
	if marked == (pipeline.RegMask{}) {
		t.Fatal("marking pipeline marked no register")
	}
}

// TestPipelineResetFromAllocFree pins the clone pool's re-image path:
// resetting a clone back to its master must not allocate once the pool is
// in steady state (every clone shaped identically to the master). Only a
// fresh receiver's component tables grow, and Clone is where that happens.
func TestPipelineResetFromAllocFree(t *testing.T) {
	p := warmPipeline(t)
	c := p.Clone()
	c.ResetFrom(p) // first re-image settles any lazily-sized state
	allocs := testing.AllocsPerRun(100, func() { c.ResetFrom(p) })
	if allocs != 0 {
		t.Fatalf("ResetFrom allocated %.2f objects/op on an identically-shaped clone, want 0", allocs)
	}
}

// TestArchStepAllocFree pins the architectural simulator's trial inner loop
// at zero allocations per instruction.
func TestArchStepAllocFree(t *testing.T) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	sim := arch.New(m, prog.Entry)
	if _, _, err := sim.Run(1_000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2_000, func() { sim.Step() })
	if allocs != 0 {
		t.Fatalf("arch.Sim.Step allocated %.2f objects/op, want 0", allocs)
	}
}

// TestPipelineStepWithDecodeCacheAllocFree pins the campaign configuration
// of the hot path: Step with a decode cache attached must stay at zero
// allocations, since every campaign trial runs this exact shape.
func TestPipelineStepWithDecodeCacheAllocFree(t *testing.T) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	p.SetDecodeCache(isa.NewDecodeCache(prog.CodeBase, prog.Code))
	p.RunCycles(5_000)
	if p.Status() != pipeline.StatusRunning {
		t.Fatal("pipeline stopped during warm-up")
	}
	allocs := testing.AllocsPerRun(2_000, p.Step)
	if allocs != 0 {
		t.Fatalf("pipeline.Step with decode cache allocated %.2f objects/op, want 0", allocs)
	}
}

// TestStateHashAllocFree pins the masked-detection digest: after the space
// seals, Hash is a pure sweep of the packed backing and must not allocate.
func TestStateHashAllocFree(t *testing.T) {
	p := warmPipeline(t)
	s := p.State()
	var sink uint64
	if allocs := testing.AllocsPerRun(1_000, func() { sink ^= s.Hash() }); allocs != 0 {
		t.Fatalf("Hash allocated %.2f objects/op, want 0", allocs)
	}
	_ = sink
}

// TestArchStepWithDecodeCacheAllocFree pins the VM-campaign shape of the
// architectural inner loop.
func TestArchStepWithDecodeCacheAllocFree(t *testing.T) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	sim := arch.New(m, prog.Entry)
	sim.DCache = isa.NewDecodeCache(prog.CodeBase, prog.Code)
	if _, _, err := sim.Run(1_000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2_000, func() { sim.Step() })
	if allocs != 0 {
		t.Fatalf("arch.Sim.Step with decode cache allocated %.2f objects/op, want 0", allocs)
	}
}
