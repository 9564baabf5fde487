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
// touched access units against a fresh clone of the master that marks its own
// accesses over the window.
type resolveSpy struct {
	*uarchModel
	t        *testing.T
	resolved []int
}

func (s *resolveSpy) record() (bool, error) {
	ok, err := s.uarchModel.record()
	if ok && err == nil {
		var want pipeline.AccessMask
		f := s.master.Clone()
		f.MarkAccess(&want)
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

// foldAccess gives each point exactly the access units touched in its window,
// cycles (p, p+W], however the windows overlap.
func TestFoldAccessWindows(t *testing.T) {
	m := &uarchModel{
		cfg:     &UArchConfig{WarmupCycles: 100, WindowCycles: 10},
		offsets: []uint64{0, 5, 5, 12, 40},
	}
	m.touched = make([]pipeline.AccessMask, len(m.offsets))
	// Cycle c touches unit c mod AccessUnits alone; 60 cycles never wrap.
	mark := func(mask *pipeline.AccessMask, c uint64) {
		u := c % pipeline.AccessUnits
		mask[u/64] |= 1 << (u % 64)
	}
	for c := uint64(101); c <= 160; c++ {
		mark(&m.access, c)
		m.foldAccess(c)
	}
	for i, off := range m.offsets {
		var want pipeline.AccessMask
		for c := 100 + off + 1; c <= 100+off+10; c++ {
			mark(&want, c)
		}
		if m.touched[i] != want {
			t.Errorf("point %d at offset %d: touched %x, want %x", i, off, m.touched[i], want)
		}
	}
}

// unitClass names the access-unit class of a state element the directed test
// flips — an exec slot, a ready bit or a scheduler slot's operand fields — or
// returns "" for any other element.
func unitClass(name string) string {
	switch name {
	case "exec.val", "exec.tag", "exec.rob":
		return "exec"
	case "prf.ready":
		return "ready"
	case "sched.robIdx", "sched.src1", "sched.src2", "sched.src3":
		return "sched"
	}
	return ""
}

// The untouched rule reaches execution-window slots, ready bits and
// scheduler operand fields, but a sampled campaign flips few of them. So at
// one point on every benchmark, flip a bit of every unit of those classes that
// the golden run leaves untouched, every word of a slot in turn, and compare
// each resolved record with full simulation. A 2-bit burst over two untouched
// ready bits resolves too; one over an untouched and a touched ready bit must
// be simulated.
func TestUArchUntouchedUnitsMatchSimulation(t *testing.T) {
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			cfg := smallUArch(bench)
			cfg.Points, cfg.TrialsPerPoint = 1, 1
			cfg.applyDefaults()
			prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
			if err != nil {
				t.Fatal(err)
			}
			m, err := newUArchModel(&cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.plan(); err != nil {
				t.Fatal(err)
			}
			if err := m.warmUp(); err != nil {
				t.Fatal(err)
			}
			if ok, err := m.advance(0); !ok || err != nil {
				t.Fatalf("advance: %v, %v", ok, err)
			}
			if ok, err := m.record(); !ok || err != nil {
				t.Fatalf("record: %v, %v", ok, err)
			}
			w := newEngine(0, nil, "", func(int) {})
			elems := m.space.Elements()
			// trial runs the campaign's one slot on a flip at ref, with the
			// shortcut on or off, and reports whether prepare resolved it.
			trial := func(ref pipeline.BitRef, burst int, simulate bool) (UArchTrial, bool) {
				m.picks[0] = uarchPick{ref: ref, isLatch: elems[ref.Elem].Kind == pipeline.KindLatch}
				cfg.BurstBits, cfg.noEarlyExit = burst, simulate
				var out UArchTrial
				resolved := m.prepare(0, &out, w)
				return out, resolved
			}
			touched := func(ref pipeline.BitRef) bool {
				u, ok := m.master.AccessUnit(ref)
				return !ok || m.golden.touched.Has(u)
			}
			found := map[string]int{}
			check := func(class string, ref pipeline.BitRef, burst int) {
				got, resolved := trial(ref, burst, false)
				if !resolved {
					t.Errorf("%s bit %d, burst %d: untouched but simulated", elems[ref.Elem].Name, ref.Bit, burst)
					return
				}
				if want, _ := trial(ref, burst, true); got != want {
					t.Errorf("%s bit %d, burst %d: resolved record differs from simulation:\nresolved:  %+v\nsimulated: %+v",
						elems[ref.Elem].Name, ref.Bit, burst, got, want)
				}
				found[class]++
			}
			var pair, straddle *pipeline.BitRef
			for e, el := range elems {
				class := unitClass(el.Name)
				if class == "" {
					continue
				}
				if class != "ready" {
					ref := pipeline.BitRef{Elem: e, Bit: uint8(e % int(el.Bits))}
					if !touched(ref) {
						check(class, ref, 1)
					}
					continue
				}
				for b := uint8(0); b < el.Bits; b++ {
					ref := pipeline.BitRef{Elem: e, Bit: b}
					if touched(ref) {
						continue
					}
					check(class, ref, 1)
					if b+1 == el.Bits {
						continue
					}
					next := touched(pipeline.BitRef{Elem: e, Bit: b + 1})
					if !next && pair == nil {
						pair = &ref
					}
					if next && straddle == nil {
						straddle = &ref
					}
				}
			}
			if pair != nil {
				check("ready", *pair, 2)
			}
			if straddle != nil {
				if _, resolved := trial(*straddle, 2, false); resolved {
					t.Errorf("prf.ready bits %d-%d: a burst over a touched ready bit was resolved", straddle.Bit, straddle.Bit+1)
				}
			}
			t.Logf("untouched units checked: %v; 2-bit ready bursts: over two untouched bits %v, over a touched one %v",
				found, pair != nil, straddle != nil)
			want := []string{"exec", "ready"}
			if bench == workload.MCF {
				want = append(want, "sched")
			}
			for _, class := range want {
				if found[class] == 0 {
					t.Errorf("no untouched %s unit at the point", class)
				}
			}
			if pair == nil || straddle == nil {
				t.Error("no pair of adjacent ready bits to burst across")
			}
		})
	}
}

// The work counts of smallUArch on every benchmark are exact: faulty cycles
// simulated, trials resolved from the golden log and golden states digested.
// They depend on the rule's reach, on which golden cycles a view reads and on
// nothing of the host, so a change in any shows here as a count.
func TestUArchWorkCountsPinned(t *testing.T) {
	want := map[workload.Benchmark][3]int64{ // trial cycles, resolved trials, golden digests
		workload.Bzip2:  {41385, 16, 8107},
		workload.Gap:    {46920, 13, 8107},
		workload.GCC:    {52537, 14, 8107},
		workload.Gzip:   {52782, 16, 8107},
		workload.MCF:    {65475, 17, 8107},
		workload.Parser: {69542, 13, 8107},
		workload.Vortex: {73543, 14, 8107},
	}
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			reg := obs.NewRegistry()
			cfg := smallUArch(bench)
			cfg.Obs = reg
			if _, err := RunUArch(cfg); err != nil {
				t.Fatal(err)
			}
			got := [3]int64{
				reg.Counter("campaign_uarch_trial_cycles_total").Value(),
				reg.Counter("campaign_uarch_resolved_trials_total").Value(),
				reg.Counter("campaign_uarch_golden_digests_total").Value(),
			}
			if got != want[bench] {
				t.Errorf("trial cycles, resolved trials, golden digests = %d, %d, %d; want %d, %d, %d (golden cycles %d)",
					got[0], got[1], got[2], want[bench][0], want[bench][1], want[bench][2],
					reg.Counter("campaign_uarch_golden_cycles_total").Value())
			}
		})
	}
}
