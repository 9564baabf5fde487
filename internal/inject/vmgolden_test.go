package inject

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/workload"
)

// The VM campaign's golden bookkeeping: where a halting program truncates the
// campaign, and what the walker's write journal holds between points.
//
// No workload of the suite ever halts, so the truncation rules — a halt on
// the walk to a point ends the campaign before that point, a halt inside a
// point's observation window ends it at that point — are pinned here over a
// countdown loop that ends in halt. The expected cut comes from an oracle
// that steps a plain arch.Sim through the program once, independently of the
// campaign's golden bookkeeping.

// countdown assembles a loop of 5 instructions per iteration (one store, one
// load) that halts after iters iterations.
func countdown(t *testing.T, iters int) *workload.Program {
	t.Helper()
	prog, err := asm.Assemble("countdown", fmt.Sprintf(`
		.data buf 64
		.base r3 buf
		.imm  r1 %d
	loop:
		subq r1, #1, r1
		addq r2, r1, r2
		stq  r2, 0(r3)
		ldq  r4, 0(r3)
		bne  r1, loop
		halt
	`, iters))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// vmCut replays RunVM's point walk over the golden instruction stream of
// prog. It returns the index of the first point the campaign cannot run,
// whether the halt lay inside that point's window (rather than on the walk to
// it), and the injection starts — instruction counts just after each
// injection — of the points before the cut.
func vmCut(t *testing.T, prog *workload.Program, points []uint64, window uint64) (cut int, inWindow bool, starts []uint64) {
	t.Helper()
	memory, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	sim := arch.New(memory, prog.Entry)
	var writes []bool // per golden instruction: does it write a register?
	for {
		ev := sim.Step()
		if ev.Exception != arch.ExcNone {
			t.Fatalf("countdown excepted at %#x", ev.PC)
		}
		if ev.Halted {
			break
		}
		writes = append(writes, ev.DestValid && ev.Dest != isa.RegZero)
	}
	halt := uint64(len(writes)) // instruction index of the halt
	cur := uint64(0)
	for i, p := range points {
		j := max(p, cur)
		for j < halt && !writes[j] {
			j++
		}
		if j >= halt {
			return i, false, starts
		}
		start := j + 1
		if halt < start+window {
			return i, true, starts
		}
		starts = append(starts, start)
		cur = start
	}
	return len(points), false, starts
}

func TestVMTruncatedCampaign(t *testing.T) {
	cases := []struct {
		name     string
		iters    int
		cfg      VMConfig
		inWindow bool // the halt lies inside the cut point's window
		wideGap  bool // some gap between run points must exceed Window
	}{
		{"halt-in-later-window", 700,
			VMConfig{Trials: 32, Points: 8, Warmup: 100, Spread: 4000, Window: 1500}, true, false},
		{"halt-before-point", 500,
			VMConfig{Trials: 32, Points: 8, Warmup: 100, Spread: 4000, Window: 40}, false, false},
		{"gaps-wider-than-window", 4320,
			VMConfig{Trials: 24, Points: 6, Warmup: 100, Spread: 30000, Window: 800}, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := countdown(t, tc.iters)
			cfg := tc.cfg
			cfg.Seed = 11
			cfg.applyDefaults()
			m, err := newVMModel(&cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.plan(); err != nil {
				t.Fatal(err)
			}
			cut, inWindow, starts := vmCut(t, prog, m.points, cfg.Window)
			if cut == 0 || cut == cfg.Points {
				t.Fatalf("cut at point %d of %d: the case must truncate after a run point", cut, cfg.Points)
			}
			if inWindow != tc.inWindow {
				t.Fatalf("halt inside the cut point's window = %v, want %v", inWindow, tc.inWindow)
			}
			wide := false
			for i := 1; i < len(starts); i++ {
				wide = wide || starts[i]-starts[i-1] > cfg.Window
			}
			if tc.wideGap && !wide {
				t.Fatalf("no gap wider than Window before the cut")
			}
			per, extra := cfg.Trials/cfg.Points, cfg.Trials%cfg.Points
			want := cut*per + min(cut, extra)

			var serial []VMTrial
			for _, workers := range []int{0, 2} {
				cfg := cfg
				cfg.Workers = workers
				m, err := newVMModel(&cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				trials, err := run[VMTrial](cfg.spec(), cfg.Exec, m)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(trials) != want {
					t.Fatalf("workers=%d: %d trials, want %d (cut at point %d)", workers, len(trials), want, cut)
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
