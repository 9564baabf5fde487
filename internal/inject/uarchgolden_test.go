package inject

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// The µarch campaign's golden bookkeeping over a halting program.
//
// As for the VM campaign (vmgolden_test.go), no workload of the suite ever
// halts, so the truncation rules are pinned over the countdown loop: a halt on
// the walk to a point ends the campaign before that point, and a halt inside a
// point's recorded golden span (Window + Window/4 cycles) ends it at that
// point. Either way the cut is the first point i with H <= Pᵢ + span, where Pᵢ
// is the point's cycle and H the cycle at which a plain pipeline, stepped from
// the program's entry, halts. The oracle is independent of the campaign's
// golden recording.

// uarchHalt returns the cycle at which a plain pipeline running prog halts.
func uarchHalt(t *testing.T, prog *workload.Program) uint64 {
	t.Helper()
	memory, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), memory, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	for p.Status() == pipeline.StatusRunning {
		p.Cycle()
	}
	if p.Status() != pipeline.StatusHalted {
		t.Fatalf("countdown stopped with status %v at cycle %d", p.Status(), p.Cycles())
	}
	return p.Cycles()
}

// uarchLogShape replays the golden log's bookkeeping over the cycles of the
// points a campaign runs. A point that starts past its predecessor's recorded
// span forks a fresh recorder; one that starts inside it but more than a span
// past the live log's base moves the log's live suffix.
func uarchLogShape(starts []uint64, span uint64) (forks, moves int) {
	base := starts[0]
	for i := 1; i < len(starts); i++ {
		switch {
		case starts[i] > starts[i-1]+span:
			forks++
			base = starts[i]
		case starts[i]-base > span:
			moves++
			base = starts[i]
		}
	}
	return forks, moves
}

func TestUArchHaltTruncation(t *testing.T) {
	cases := []struct {
		name     string
		iters    int
		cfg      UArchConfig
		inWindow bool // the halt lies inside the cut point's span
		fork     bool // some run point must start past its predecessor's span
		move     bool // some run point must move the live log's suffix
	}{
		{"halt-in-later-window", 700,
			UArchConfig{Points: 8, TrialsPerPoint: 4, WarmupCycles: 100, SpreadCycles: 2000, WindowCycles: 400},
			true, false, false},
		{"halt-before-point", 700,
			UArchConfig{Points: 8, TrialsPerPoint: 4, WarmupCycles: 100, SpreadCycles: 4000, WindowCycles: 40},
			false, false, false},
		{"gaps-wider-than-span", 4000,
			UArchConfig{Points: 6, TrialsPerPoint: 4, WarmupCycles: 100, SpreadCycles: 12000, WindowCycles: 400},
			true, true, false},
		{"live-suffix-moves", 2000,
			UArchConfig{Points: 16, TrialsPerPoint: 3, WarmupCycles: 100, SpreadCycles: 5000, WindowCycles: 400},
			true, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := countdown(t, tc.iters)
			halt := uarchHalt(t, prog)
			cfg := tc.cfg
			cfg.Seed = 11
			cfg.applyDefaults()
			m, err := newUArchModel(&cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.plan(); err != nil {
				t.Fatal(err)
			}
			span := cfg.WindowCycles + cfg.WindowCycles/4
			var starts []uint64
			for _, off := range m.offsets {
				p := cfg.WarmupCycles + off
				if halt <= p+span {
					break
				}
				starts = append(starts, p)
			}
			cut := len(starts)
			if cut == 0 || cut == cfg.Points {
				t.Fatalf("cut at point %d of %d (halt at cycle %d): the case must truncate after a run point", cut, cfg.Points, halt)
			}
			if inWindow := halt > cfg.WarmupCycles+m.offsets[cut]; inWindow != tc.inWindow {
				t.Fatalf("halt at cycle %d inside the cut point's span = %v, want %v", halt, inWindow, tc.inWindow)
			}
			forks, moves := uarchLogShape(starts, span)
			if tc.fork && forks == 0 {
				t.Fatalf("no run point starts past its predecessor's span of %d cycles", span)
			}
			if tc.move && moves == 0 {
				t.Fatalf("no run point moves the live log's suffix")
			}
			per := cfg.TrialsPerPoint
			want := cut * per

			var serial []UArchTrial
			for _, workers := range []int{0, 2} {
				cfg := cfg
				cfg.Workers = workers
				m, err := newUArchModel(&cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				trials, err := run[UArchTrial](cfg.spec(), cfg.Exec, m)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(trials) != want {
					t.Fatalf("workers=%d: %d trials, want %d (cut at point %d, halt at cycle %d)",
						workers, len(trials), want, cut, halt)
				}
				for i, tr := range trials {
					if tr.PointCycle != starts[i/per] {
						t.Fatalf("workers=%d: trial %d at cycle %d, want point %d's cycle %d",
							workers, i, tr.PointCycle, i/per, starts[i/per])
					}
				}
				if serial == nil {
					serial = trials
					continue
				}
				for i := range serial {
					if serial[i] != trials[i] {
						t.Fatalf("workers=%d: trial %d differs from serial:\nserial: %+v\ngot:    %+v",
							workers, i, serial[i], trials[i])
					}
				}
			}
		})
	}
}
