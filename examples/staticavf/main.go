// Staticavf: predict a workload's soft-error masking rate without injecting
// a single fault, then check the prediction against a real injection
// campaign.
//
// The static analysis (internal/staticvuln) classifies every bit of every
// instruction's result as ACE or un-ACE by backward bit-level liveness over
// the program's CFG: a bit is ACE only if some path propagates it into an
// exception-raising address, a branch decision, a store that a later load
// observes, or a register that is never overwritten. Each ACE bit also gets
// the symptom class a flip of it would trigger — the Section 3 taxonomy the
// ReStore detector is built on — and a static latency bound from flip to
// symptom.
//
// Part 1 analyses one benchmark and prints the full static report.
// Part 2 runs a small dynamic campaign over the same generated program and
// compares the measured masked fraction with the prediction.
//
// Run with: go run ./examples/staticavf
package main

import (
	"fmt"
	"log"

	"repro/internal/inject"
	"repro/internal/staticvuln"
	"repro/internal/workload"
)

const (
	bench = workload.GCC
	seed  = 7
	scale = 0.25
)

func main() {
	// Both sides must look at the same program: the generator derives
	// program shape from the seed and scale.
	prog := workload.MustGenerate(bench, workload.Config{Seed: seed, Scale: scale})

	rep, err := staticvuln.Analyze(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render(false))

	fmt.Println("\nvalidating against a live injection campaign (same program)...")
	res, err := inject.RunVM(inject.VMConfig{
		Bench:  bench,
		Seed:   seed,
		Scale:  scale,
		Trials: 1200,
		Points: 150,
		Spread: 60000,
		Window: 20000,
	})
	if err != nil {
		log.Fatal(err)
	}

	static := rep.MaskedFraction(false)
	dynamic := res.MaskedFraction()
	fmt.Printf("\n  static prediction: %5.1f%% masked (no simulation of faults at all)\n", 100*static)
	fmt.Printf("  dynamic measure:   %5.1f%% masked (%d injected faults)\n", 100*dynamic, len(res.Trials))
	fmt.Printf("  disagreement:      %5.1f percentage points\n", 100*abs(static-dynamic))
	fmt.Println("\nThe static report also names the most vulnerable registers — the")
	fmt.Println("per-register AVF ranking above is where selective hardening (Section")
	fmt.Println("5.2.2's low-hanging fruit) buys the most coverage per protected bit.")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
