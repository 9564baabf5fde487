package inject

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/campaignio"
	"repro/internal/workload"
)

// resumeUArch is a deliberately small campaign: big enough to span several
// points and survive an interruption mid-run, small enough that every
// benchmark runs the one-shot / interrupted+resumed / sharded+merged trio
// quickly.
func resumeUArch(bench workload.Benchmark) UArchConfig {
	return UArchConfig{
		Bench:          bench,
		Seed:           11,
		Scale:          0.5,
		Points:         3,
		TrialsPerPoint: 10,
		WarmupCycles:   5_000,
		SpreadCycles:   10_000,
		WindowCycles:   3_000,
	}
}

func resumeVM(bench workload.Benchmark) VMConfig {
	return VMConfig{
		Bench:  bench,
		Seed:   11,
		Scale:  0.5,
		Trials: 60,
		Points: 10,
		Window: 10_000,
		Spread: 30_000,
	}
}

// interruptAfter returns an Interrupt channel wired to a Progress callback
// that fires the channel after n completed trials.
func interruptAfter(n int64) (<-chan struct{}, func(done, total int)) {
	stop := make(chan struct{})
	var once sync.Once
	var ticks atomic.Int64
	return stop, func(done, total int) {
		if ticks.Add(1) >= n {
			once.Do(func() { close(stop) })
		}
	}
}

// mergeShards merges a campaign's shard directories the way the restore-sim
// merge subcommand and the campaign daemon do, with campaignio.MergeScan and
// WriteMerged into a fresh directory, and returns an Exec that resumes the
// campaign from the merged directory. Its Interrupt has already fired, so a
// run under it succeeds only if the merged journal holds every slot it
// needs: one trial left to simulate stops the run with ErrInterrupted.
func mergeShards(t *testing.T, dirs []string) Exec {
	t.Helper()
	man, payloads, err := campaignio.MergeScan(dirs)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "merged")
	if err := campaignio.WriteMerged(out, man, payloads); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	return Exec{ResumeFrom: out, Interrupt: stop}
}

func sameUArchResults(t *testing.T, label string, want, got *UArchResult) {
	t.Helper()
	if got.TotalBits != want.TotalBits || got.LatchBits != want.LatchBits ||
		got.HardenStats != want.HardenStats {
		t.Errorf("%s: aggregates differ: %d/%d/%+v vs %d/%d/%+v", label,
			got.TotalBits, got.LatchBits, got.HardenStats,
			want.TotalBits, want.LatchBits, want.HardenStats)
	}
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("%s: %d trials, want %d", label, len(got.Trials), len(want.Trials))
	}
	for i := range want.Trials {
		if got.Trials[i] != want.Trials[i] {
			t.Fatalf("%s: trial %d differs:\n got %+v\nwant %+v", label, i, got.Trials[i], want.Trials[i])
		}
	}
}

func sameVMResults(t *testing.T, label string, want, got *VMResult) {
	t.Helper()
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("%s: %d trials, want %d", label, len(got.Trials), len(want.Trials))
	}
	for i := range want.Trials {
		if got.Trials[i] != want.Trials[i] {
			t.Fatalf("%s: trial %d differs:\n got %+v\nwant %+v", label, i, got.Trials[i], want.Trials[i])
		}
	}
}

// TestUArchDurableEquivalence pins the durability contract on every
// benchmark: an interrupted-then-resumed campaign and a two-way
// sharded-then-merged campaign both reproduce the one-shot serial result
// exactly.
func TestUArchDurableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("durable campaign equivalence is slow")
	}
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			oneShot, err := RunUArch(resumeUArch(bench))
			if err != nil {
				t.Fatal(err)
			}

			// Interrupt a durable run mid-campaign, then resume it.
			dir := filepath.Join(t.TempDir(), "campaign")
			cfg := resumeUArch(bench)
			cfg.ResumeFrom = dir
			cfg.Interrupt, cfg.Progress = interruptAfter(8)
			if _, err := RunUArch(cfg); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
			}
			cfg = resumeUArch(bench)
			cfg.ResumeFrom = dir
			resumed, err := RunUArch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameUArchResults(t, "interrupt+resume", oneShot, resumed)

			// A second resume finds every slot recovered and re-runs
			// nothing — it must still reproduce the result.
			again, err := RunUArch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameUArchResults(t, "fully-recovered resume", oneShot, again)

			// Two shards in parallel-worker mode, merged.
			dirs := []string{filepath.Join(t.TempDir(), "s0"), filepath.Join(t.TempDir(), "s1")}
			for i, d := range dirs {
				scfg := resumeUArch(bench)
				scfg.ResumeFrom = d
				scfg.ShardIndex, scfg.ShardCount = i, 2
				scfg.Workers = 2
				if _, err := RunUArch(scfg); err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
			}
			mcfg := resumeUArch(bench)
			mcfg.Exec = mergeShards(t, dirs)
			merged, err := RunUArch(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			sameUArchResults(t, "shard+merge", oneShot, merged)
		})
	}
}

// TestVMDurableEquivalence is the software-level twin of
// TestUArchDurableEquivalence.
func TestVMDurableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("durable campaign equivalence is slow")
	}
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			oneShot, err := RunVM(resumeVM(bench))
			if err != nil {
				t.Fatal(err)
			}

			dir := filepath.Join(t.TempDir(), "campaign")
			cfg := resumeVM(bench)
			cfg.ResumeFrom = dir
			cfg.Interrupt, cfg.Progress = interruptAfter(15)
			if _, err := RunVM(cfg); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
			}
			cfg = resumeVM(bench)
			cfg.ResumeFrom = dir
			resumed, err := RunVM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameVMResults(t, "interrupt+resume", oneShot, resumed)

			dirs := []string{filepath.Join(t.TempDir(), "s0"), filepath.Join(t.TempDir(), "s1")}
			for i, d := range dirs {
				scfg := resumeVM(bench)
				scfg.ResumeFrom = d
				scfg.ShardIndex, scfg.ShardCount = i, 2
				scfg.Workers = 2
				if _, err := RunVM(scfg); err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
			}
			mcfg := resumeVM(bench)
			mcfg.Exec = mergeShards(t, dirs)
			merged, err := RunVM(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			sameVMResults(t, "shard+merge", oneShot, merged)
		})
	}
}

// TestResumeRepairsTornTail crashes "mid-append" by truncating the journal to
// a partial final record, then resumes: the torn tail is detected, dropped,
// and the affected trials re-run.
func TestResumeRepairsTornTail(t *testing.T) {
	bench := workload.Gzip
	oneShot, err := RunUArch(resumeUArch(bench))
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeUArch(bench)
	cfg.ResumeFrom = dir
	if _, err := RunUArch(cfg); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop the last 5 bytes (mid-record).
	jpath := filepath.Join(dir, campaignio.JournalName)
	info, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jpath, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameUArchResults(t, "torn-tail resume", oneShot, resumed)
}

// TestResumeRefusesCorruption flips a byte in the middle of a µarch journal
// and gives a VM journal a foreign header: resumption must fail with
// ErrCorrupt, never silently re-run or accept the damaged records.
func TestResumeRefusesCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeUArch(workload.Gzip)
	cfg.ResumeFrom = dir
	if _, err := RunUArch(cfg); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, campaignio.JournalName)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunUArch(cfg); !errors.Is(err, campaignio.ErrCorrupt) {
		t.Fatalf("corrupted journal resumed with err = %v, want ErrCorrupt", err)
	}

	// RSTJRNL2 is the header of the retired compressed framing.
	vcfg := resumeVM(workload.Gzip)
	vcfg.ResumeFrom = filepath.Join(t.TempDir(), "campaign")
	if _, err := RunVM(vcfg); err != nil {
		t.Fatal(err)
	}
	jpath = filepath.Join(vcfg.ResumeFrom, campaignio.JournalName)
	if data, err = os.ReadFile(jpath); err != nil {
		t.Fatal(err)
	}
	copy(data, "RSTJRNL2")
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunVM(vcfg); !errors.Is(err, campaignio.ErrCorrupt) {
		t.Fatalf("RSTJRNL2 journal resumed with err = %v, want ErrCorrupt", err)
	}
}

// S1 regression (recovery site): a journal holding one slot twice with
// identical payloads — the residue of a crash after fsync but before the
// in-memory scan position advanced — must resume cleanly, first copy wins.
// The same slot with differing payloads stays ErrCorrupt.
func TestResumeRecoversDuplicateIdenticalSlots(t *testing.T) {
	bench := workload.Gzip
	oneShot, err := RunUArch(resumeUArch(bench))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeUArch(bench)
	cfg.ResumeFrom = dir
	if _, err := RunUArch(cfg); err != nil {
		t.Fatal(err)
	}

	// Re-append an exact copy of an already-journalled record.
	scan, err := campaignio.ScanJournal(dir, len(oneShot.Trials))
	if err != nil {
		t.Fatal(err)
	}
	dup := scan.Records[3]
	w, err := campaignio.OpenWriter(dir, scan.ValidLen, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(dup.Slot, dup.Payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunUArch(cfg)
	if err != nil {
		t.Fatalf("identical duplicate slot rejected on resume: %v", err)
	}
	sameUArchResults(t, "duplicate-slot resume", oneShot, resumed)

	// Now append the same slot with different bytes: that is corruption.
	scan, err = campaignio.ScanJournal(dir, len(oneShot.Trials))
	if err != nil {
		t.Fatal(err)
	}
	w, err = campaignio.OpenWriter(dir, scan.ValidLen, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(dup.Slot, []byte(`{"forged":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RunUArch(cfg); !errors.Is(err, campaignio.ErrCorrupt) {
		t.Fatalf("differing duplicate slot resumed with err = %v, want ErrCorrupt", err)
	}
}

// TestResumeRefusesMismatchedPlan points a differently-configured campaign at
// an existing directory: the manifest check must refuse it.
func TestResumeRefusesMismatchedPlan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeUArch(workload.Gzip)
	cfg.ResumeFrom = dir
	if _, err := RunUArch(cfg); err != nil {
		t.Fatal(err)
	}
	other := resumeUArch(workload.Gzip)
	other.Seed = 99
	other.ResumeFrom = dir
	if _, err := RunUArch(other); !errors.Is(err, campaignio.ErrManifestMismatch) {
		t.Fatalf("mismatched plan resumed with err = %v, want ErrManifestMismatch", err)
	}
}

// TestShardValidation pins the sharding configuration errors.
func TestShardValidation(t *testing.T) {
	cfg := resumeUArch(workload.Gzip)
	cfg.ShardIndex, cfg.ShardCount = 0, 2
	if _, err := RunUArch(cfg); err == nil {
		t.Error("sharded campaign without a campaign directory was accepted")
	}
	cfg = resumeUArch(workload.Gzip)
	cfg.ResumeFrom = t.TempDir()
	cfg.ShardIndex, cfg.ShardCount = 5, 2
	if _, err := RunUArch(cfg); err == nil {
		t.Error("out-of-range shard index was accepted")
	}
	vcfg := resumeVM(workload.Gzip)
	vcfg.ShardIndex, vcfg.ShardCount = 1, 3
	if _, err := RunVM(vcfg); err == nil {
		t.Error("sharded VM campaign without a campaign directory was accepted")
	}
}

// TestMergeRefusesIncompleteShard interrupts one shard and then tries to
// merge: the gap the unfinished shard leaves must be reported, not papered
// over.
func TestMergeRefusesIncompleteShard(t *testing.T) {
	bench := workload.Gzip
	dirs := []string{filepath.Join(t.TempDir(), "s0"), filepath.Join(t.TempDir(), "s1")}
	for i, d := range dirs {
		cfg := resumeUArch(bench)
		cfg.ResumeFrom = d
		cfg.ShardIndex, cfg.ShardCount = i, 2
		if i == 1 {
			cfg.Interrupt, cfg.Progress = interruptAfter(3)
			if _, err := RunUArch(cfg); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("shard 1 returned %v, want ErrInterrupted", err)
			}
			continue
		}
		if _, err := RunUArch(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := campaignio.MergeScan(dirs); err == nil {
		t.Fatal("merge accepted an incomplete shard")
	}

	// Completing the interrupted shard makes the merge valid.
	cfg := resumeUArch(bench)
	cfg.ResumeFrom = dirs[1]
	cfg.ShardIndex, cfg.ShardCount = 1, 2
	if _, err := RunUArch(cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := campaignio.MergeScan(dirs); err != nil {
		t.Fatalf("merge of completed shards failed: %v", err)
	}
}
