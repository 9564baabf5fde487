package inject

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// resolveSpy is the µarch fault model with a record of the slots prepare
// completes without simulating them. It also checks each point's mask of
// touched registers against a fresh clone of the master that marks its own
// accesses over the window.
type resolveSpy struct {
	*uarchModel
	t        *testing.T
	resolved []int
}

func (s *resolveSpy) record() (bool, error) {
	ok, err := s.uarchModel.record()
	if ok && err == nil {
		var want pipeline.RegMask
		f := s.master.Clone()
		f.MarkRegAccess(&want)
		f.RunCycles(s.cfg.WindowCycles)
		if s.golden.touched != want {
			s.t.Errorf("point at cycle %d: golden log marks %x, the window touches %x", s.master.Cycles(), s.golden.touched, want)
		}
	}
	return ok, err
}

func (s *resolveSpy) prepare(slot int, out *UArchTrial, w *engine) bool {
	done := s.uarchModel.prepare(slot, out, w)
	if done && !out.Protected {
		s.resolved = append(s.resolved, slot)
	}
	return done
}

// runUArchSpy runs cfg as RunUArch does and returns its trials with the slots
// it resolved from the golden log.
func runUArchSpy(t *testing.T, cfg UArchConfig) ([]UArchTrial, []int) {
	t.Helper()
	cfg.applyDefaults()
	prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		t.Fatal(err)
	}
	m, err := newUArchModel(&cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	spy := &resolveSpy{uarchModel: m, t: t}
	trials, err := run[UArchTrial](cfg.spec(), cfg.Exec, spy)
	if err != nil {
		t.Fatal(err)
	}
	return trials, spy.resolved
}

// A trial whose flipped physical register the golden run never reads or
// writes in the window is resolved without simulation. Each such record must
// equal the one full simulation (noEarlyExit, which turns the shortcut off)
// produces, serially and on 4 workers, for single flips and 2-bit bursts; and
// the shortcut must fire on every benchmark, so the comparison is never
// empty.
func TestUArchResolvedTrialsMatchSimulation(t *testing.T) {
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			for _, burst := range []int{1, 2} {
				ref := smallUArch(bench)
				ref.BurstBits, ref.noEarlyExit = burst, true
				want, err := RunUArch(ref)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{0, 4} {
					name := fmt.Sprintf("burst=%d/workers=%d", burst, workers)
					cfg := smallUArch(bench)
					cfg.BurstBits, cfg.Workers = burst, workers
					reg := obs.NewRegistry()
					cfg.Obs = reg
					trials, resolved := runUArchSpy(t, cfg)
					if len(resolved) == 0 {
						t.Fatalf("%s: no trial resolved from the golden log", name)
					}
					if got := reg.Counter("campaign_uarch_resolved_trials_total").Value(); got != int64(len(resolved)) {
						t.Errorf("%s: resolved counter = %d, want %d", name, got, len(resolved))
					}
					for _, slot := range resolved {
						if trials[slot] != want.Trials[slot] {
							t.Fatalf("%s: resolved slot %d differs from simulation:\nresolved:  %+v\nsimulated: %+v",
								name, slot, trials[slot], want.Trials[slot])
						}
					}
					sameUArchTrials(t, name, want, &UArchResult{Trials: trials, TotalBits: want.TotalBits, LatchBits: want.LatchBits})
				}
			}
		})
	}
}

// foldAccess gives each point exactly the registers touched in its window,
// cycles (p, p+W], however the windows overlap.
func TestFoldAccessWindows(t *testing.T) {
	m := &uarchModel{
		cfg:     &UArchConfig{WarmupCycles: 100, WindowCycles: 10},
		offsets: []uint64{0, 5, 5, 12, 40},
	}
	m.touched = make([]pipeline.RegMask, len(m.offsets))
	// Cycle c touches register c mod 128 alone; 60 cycles never wrap.
	mark := func(mask *pipeline.RegMask, c uint64) {
		r := c % pipeline.PhysRegs
		mask[r/64] |= 1 << (r % 64)
	}
	for c := uint64(101); c <= 160; c++ {
		mark(&m.access, c)
		m.foldAccess(c)
	}
	for i, off := range m.offsets {
		var want pipeline.RegMask
		for c := 100 + off + 1; c <= 100+off+10; c++ {
			mark(&want, c)
		}
		if m.touched[i] != want {
			t.Errorf("point %d at offset %d: touched %x, want %x", i, off, m.touched[i], want)
		}
	}
}
