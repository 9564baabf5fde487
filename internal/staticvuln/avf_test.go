package staticvuln_test

import (
	"testing"

	"repro/internal/inject"
	"repro/internal/staticvuln"
	"repro/internal/workload"
)

// TestStaticVsDynamicAVF cross-validates the static ACE analysis against the
// dynamic injection campaign: for every benchmark, the statically predicted
// masked fraction must land within ±10 percentage points of the measured one.
// Both sides analyse the *same* generated program (same seed and scale) —
// the workload generator derives program shape from the seed, so mismatched
// seeds would compare different programs.
func TestStaticVsDynamicAVF(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic campaign is slow; skipped in -short mode")
	}
	const (
		seed     = 7
		scale    = 0.25
		tolPP    = 10.0 // ± percentage points
		trials   = 3200
		points   = 400
		warmup   = 5000
		spread   = 60000
		windowSz = 20000
	)
	for _, b := range workload.Benchmarks() {
		b := b
		t.Run(string(b), func(t *testing.T) {
			t.Parallel()
			prog := workload.MustGenerate(b, workload.Config{Seed: seed, Scale: scale})
			rep, err := staticvuln.Analyze(prog)
			if err != nil {
				t.Fatalf("static analysis: %v", err)
			}
			static := rep.MaskedFraction(false)

			res, err := inject.RunVM(inject.VMConfig{
				Bench:  b,
				Seed:   seed,
				Scale:  scale,
				Trials: trials,
				Points: points,
				Warmup: warmup,
				Spread: spread,
				Window: windowSz,
			})
			if err != nil {
				t.Fatalf("dynamic campaign: %v", err)
			}
			dynamic := res.MaskedFraction()

			diff := (static - dynamic) * 100
			if diff < 0 {
				diff = -diff
			}
			t.Logf("%s: static masked %.1f%%, dynamic masked %.1f%%, |Δ| = %.1fpp",
				b, static*100, dynamic*100, diff)
			if diff > tolPP {
				t.Errorf("%s: static %.1f%% vs dynamic %.1f%% masked — |Δ| %.1fpp exceeds ±%.0fpp",
					b, static*100, dynamic*100, diff, tolPP)
			}
		})
	}
}
