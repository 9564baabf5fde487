//go:build proof

package inject

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// The paper-scale proof run. Every shortcut of the µarch campaign — early
// exit, and each slot resolved from the golden log — rests on an exactness
// argument (DESIGN.md). This test checks the arguments where the published
// figures come from: fig4, fig4-latches and fig6 at paper scale and seed 42,
// each run once as usual and once with every shortcut off (noEarlyExit), slot
// by slot on all 7 benchmarks. It is too slow for the tier-1 suite, so it
// sits behind the proof build tag:
//
//	go test -tags proof -run TestPaperScaleProof -timeout 30m ./internal/inject
func TestPaperScaleProof(t *testing.T) {
	for _, c := range []struct {
		name              string
		latches, hardened bool
	}{
		{"fig4", false, false},
		{"fig4-latches", true, false},
		{"fig6", false, true},
	} {
		for _, bench := range workload.Benchmarks() {
			t.Run(c.name+"/"+string(bench), func(t *testing.T) {
				// The configuration experiments.Campaign runs at
				// TrialFactor 1.0.
				cfg := UArchConfig{
					Bench: bench, Seed: 42,
					Points: 25, TrialsPerPoint: 70, WindowCycles: 10_000,
					LatchesOnly: c.latches, Hardened: c.hardened,
				}
				cfg.Workers = runtime.GOMAXPROCS(0)
				reg := obs.NewRegistry()
				cfg.Obs = reg
				fast, err := RunUArch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Obs, cfg.noEarlyExit = nil, true
				full, err := RunUArch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(fast.Trials) != len(full.Trials) {
					t.Fatalf("%d trials with the shortcuts, %d without", len(fast.Trials), len(full.Trials))
				}
				differ := 0
				for i := range full.Trials {
					if fast.Trials[i] == full.Trials[i] {
						continue
					}
					if differ++; differ <= 5 {
						t.Errorf("slot %d differs:\nshortcuts: %+v\nsimulated: %+v", i, fast.Trials[i], full.Trials[i])
					}
				}
				if differ > 5 {
					t.Errorf("%d slots differ in all", differ)
				}
				t.Logf("%d trials equal; %d resolved from the golden log, %d faulty cycles simulated with the shortcuts",
					len(full.Trials)-differ, reg.Counter("campaign_uarch_resolved_trials_total").Value(),
					reg.Counter("campaign_uarch_trial_cycles_total").Value())
			})
		}
	}
}
