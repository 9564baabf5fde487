package inject

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// The resume rule: a recovered slot proves that the golden run reached its
// point and recorded the point's span, so a resumed campaign runs the golden
// run only up to the last point where it owes a trial or where no slot was
// recovered. A complete shard or merged journal then does no golden work at
// all, and truncation still lands where the one-shot run put it.

// campaignDir returns every file of a campaign directory by name.
func campaignDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// gzipUArch and gzipVM run the resume tests' small campaigns on gzip under x.
func gzipUArch(x Exec) ([]UArchTrial, error) {
	cfg := resumeUArch(workload.Gzip)
	cfg.Exec = x
	res, err := RunUArch(cfg)
	if err != nil {
		return nil, err
	}
	return res.Trials, nil
}

func gzipVM(x Exec) ([]VMTrial, error) {
	cfg := resumeVM(workload.Gzip)
	cfg.Exec = x
	res, err := RunVM(cfg)
	if err != nil {
		return nil, err
	}
	return res.Trials, nil
}

// The counters of each campaign's golden work.
const (
	uarchGoldenWork = "campaign_uarch_golden_cycles_total"
	vmGoldenWork    = "campaign_vm_golden_insts_total"
)

// TestCompleteResumeDoesNoGoldenWork writes a campaign in two shards, then
// resumes each shard and the merged directory: every resume returns the
// written trials, ticks once per owned slot, leaves the directory's bytes
// alone and simulates not one golden cycle or instruction.
func TestCompleteResumeDoesNoGoldenWork(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("uarch/workers%d", workers), func(t *testing.T) {
			t.Parallel()
			completeResume(t, workers, uarchGoldenWork, gzipUArch)
		})
		t.Run(fmt.Sprintf("vm/workers%d", workers), func(t *testing.T) {
			t.Parallel()
			completeResume(t, workers, vmGoldenWork, gzipVM)
		})
	}
}

func completeResume[T comparable](t *testing.T, workers int, goldenWork string, run func(Exec) ([]T, error)) {
	dirs := []string{t.TempDir(), t.TempDir()}
	written := make([][]T, len(dirs))
	for i, dir := range dirs {
		reg := obs.NewRegistry()
		var err error
		written[i], err = run(Exec{Workers: workers, Obs: reg, ResumeFrom: dir, ShardIndex: i, ShardCount: len(dirs)})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if reg.Counter(goldenWork).Value() == 0 {
			t.Fatalf("shard %d: the write run reports no %s", i, goldenWork)
		}
	}
	slots := len(written[0])
	full := make([]T, slots)
	for slot := range full {
		full[slot] = written[slot%len(dirs)][slot]
	}
	resumes := []struct {
		label string
		x     Exec
		want  []T
		owned int
	}{
		{"shard 1 of 2", Exec{ResumeFrom: dirs[0], ShardIndex: 0, ShardCount: 2}, written[0], (slots + 1) / 2},
		{"shard 2 of 2", Exec{ResumeFrom: dirs[1], ShardIndex: 1, ShardCount: 2}, written[1], slots / 2},
		{"merged", mergeShards(t, dirs), full, slots},
	}
	for _, r := range resumes {
		before := campaignDir(t, r.x.ResumeFrom)
		reg := obs.NewRegistry()
		var ticks atomic.Int64
		r.x.Workers, r.x.Obs = workers, reg
		r.x.Progress = func(done, total int) {
			ticks.Add(1)
			if total != r.owned {
				t.Errorf("%s: progress total %d, want %d", r.label, total, r.owned)
			}
		}
		got, err := run(r.x)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		if !slices.Equal(got, r.want) {
			t.Errorf("%s: trials differ from the write run's", r.label)
		}
		if n := ticks.Load(); n != int64(r.owned) {
			t.Errorf("%s: %d progress ticks, want one per owned slot (%d)", r.label, n, r.owned)
		}
		if n := reg.Counter(goldenWork).Value(); n != 0 {
			t.Errorf("%s: %s = %d, want 0", r.label, goldenWork, n)
		}
		for _, m := range reg.Snapshot().Metrics {
			if strings.HasPrefix(m.Name, "pipeline_") && (m.Value != 0 || m.Count != 0) {
				t.Errorf("%s: the master pipeline was stepped: %s = %v (count %d)", r.label, m.Name, m.Value, m.Count)
			}
		}
		if after := campaignDir(t, r.x.ResumeFrom); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the resume changed the campaign directory", r.label)
		}
	}
}

// TestInterruptedShardResumeRecordsOwedPoints interrupts a shard, resumes it,
// and requires the fresh shard's trials from less golden work than the fresh
// run did: the points whose owned slots were all recovered are walked past,
// not recorded.
func TestInterruptedShardResumeRecordsOwedPoints(t *testing.T) {
	t.Run("uarch", func(t *testing.T) {
		t.Parallel()
		interruptedShard(t, uarchGoldenWork, gzipUArch)
	})
	t.Run("vm", func(t *testing.T) {
		t.Parallel()
		interruptedShard(t, vmGoldenWork, gzipVM)
	})
}

func interruptedShard[T comparable](t *testing.T, goldenWork string, run func(Exec) ([]T, error)) {
	fresh := obs.NewRegistry()
	want, err := run(Exec{Obs: fresh, ResumeFrom: t.TempDir(), ShardCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := Exec{ResumeFrom: t.TempDir(), ShardCount: 2}
	x.Interrupt, x.Progress = interruptAfter(10)
	if _, err := run(x); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted shard returned %v, want ErrInterrupted", err)
	}
	resumed := obs.NewRegistry()
	x.Interrupt, x.Progress, x.Obs = nil, nil, resumed
	got, err := run(x)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Error("the resumed shard's trials differ from the fresh shard's")
	}
	if r, f := resumed.Counter(goldenWork).Value(), fresh.Counter(goldenWork).Value(); r == 0 || r >= f {
		t.Errorf("%s = %d resumed, %d fresh; want above 0 and below the fresh run's", goldenWork, r, f)
	}
}

// TestResumeKeepsTruncation journals the halting countdown programs of
// TestVMTruncatedCampaign and TestUArchHaltTruncation in two shards with one
// trial per point, so each point's slot belongs to one shard. Resuming each
// shard and the merged directory must return the one-shot cut. The shard
// that does not own the cut point has no recovered slot there, so it must
// record the point to find the halt inside its window: trusting ownership
// alone would walk past the cut.
func TestResumeKeepsTruncation(t *testing.T) {
	t.Run("vm", func(t *testing.T) {
		for _, tc := range []struct {
			name     string
			iters    int
			cfg      VMConfig
			inWindow bool
		}{
			{"halt-in-later-window", 700, VMConfig{Trials: 8, Points: 8, Warmup: 100, Spread: 4000, Window: 1500}, true},
			{"halt-before-point", 500, VMConfig{Trials: 8, Points: 8, Warmup: 100, Spread: 4000, Window: 40}, false},
		} {
			t.Run(tc.name, func(t *testing.T) {
				prog := countdown(t, tc.iters)
				cfg := tc.cfg
				cfg.Seed = 11
				cfg.applyDefaults()
				shardedTruncation(t, func(x Exec) ([]VMTrial, error) {
					cfg := cfg
					cfg.Exec = x
					m, err := newVMModel(&cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					return run[VMTrial](cfg.spec(), cfg.Exec, m)
				}, func(cut int) bool {
					m, err := newVMModel(&cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := m.plan(); err != nil {
						t.Fatal(err)
					}
					c, inWindow, _ := vmCut(t, prog, m.points, cfg.Window)
					if c != cut {
						t.Fatalf("the oracle cuts at point %d, the one-shot run at %d", c, cut)
					}
					return inWindow
				}, tc.inWindow)
			})
		}
	})
	t.Run("uarch", func(t *testing.T) {
		for _, tc := range []struct {
			name     string
			iters    int
			cfg      UArchConfig
			inWindow bool
		}{
			{"halt-in-later-window", 700,
				UArchConfig{Points: 8, TrialsPerPoint: 1, WarmupCycles: 100, SpreadCycles: 2000, WindowCycles: 400}, true},
			{"halt-before-point", 700,
				UArchConfig{Points: 8, TrialsPerPoint: 1, WarmupCycles: 100, SpreadCycles: 4000, WindowCycles: 40}, false},
		} {
			t.Run(tc.name, func(t *testing.T) {
				prog := countdown(t, tc.iters)
				cfg := tc.cfg
				cfg.Seed = 11
				cfg.applyDefaults()
				shardedTruncation(t, func(x Exec) ([]UArchTrial, error) {
					cfg := cfg
					cfg.Exec = x
					m, err := newUArchModel(&cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					return run[UArchTrial](cfg.spec(), cfg.Exec, m)
				}, func(cut int) bool {
					m, err := newUArchModel(&cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := m.plan(); err != nil {
						t.Fatal(err)
					}
					return uarchHalt(t, prog) > cfg.WarmupCycles+m.offsets[cut]
				}, tc.inWindow)
			})
		}
	})
}

// shardedTruncation checks one truncating campaign: run runs it under an
// Exec, and haltInWindow reports whether the halt lies inside the cut
// point's window rather than on the walk to it.
func shardedTruncation[T comparable](t *testing.T, run func(Exec) ([]T, error), haltInWindow func(cut int) bool, inWindow bool) {
	oneShot, err := run(Exec{})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(oneShot) // one trial per point
	if cut == 0 {
		t.Fatal("the campaign runs no point: the case must truncate after a run point")
	}
	if haltInWindow(cut) != inWindow {
		t.Fatalf("halt inside the cut point %d's window = %v, want %v", cut, !inWindow, inWindow)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		x := Exec{ResumeFrom: dir, ShardIndex: i, ShardCount: len(dirs)}
		written, err := run(x)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		resumed, err := run(x)
		if err != nil {
			t.Fatalf("shard %d resumed: %v", i, err)
		}
		// Shard cut%2 owns the cut point's slot; the other shard does not.
		if len(written) != cut || !slices.Equal(resumed, written) {
			t.Errorf("shard %d (owns the cut point: %v): %d trials written, %d resumed, want the one-shot cut at %d",
				i, cut%2 == i, len(written), len(resumed), cut)
		}
	}
	merged, err := run(mergeShards(t, dirs))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(merged, oneShot) {
		t.Errorf("merged: %d trials, want the one-shot cut at %d", len(merged), cut)
	}
}
