package experiments

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fit"
	"repro/internal/harden"
	"repro/internal/inject"
	"repro/internal/perf"
	"repro/internal/restore"
	"repro/internal/workload"
)

// tinyOpts keeps experiment tests fast: two benchmarks, minimal trials.
func tinyOpts() Options {
	return Options{
		Seed:        42,
		Scale:       0.5,
		TrialFactor: 0.05,
		Benchmarks:  []workload.Benchmark{workload.MCF, workload.Gzip},
	}
}

func TestFig2EndToEnd(t *testing.T) {
	res, err := Fig2(tinyOpts(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerBench) != 2 || len(res.AllTrials) == 0 {
		t.Fatalf("missing results: %d benches, %d trials", len(res.PerBench), len(res.AllTrials))
	}
	text := res.Table.Render()
	for _, want := range []string{"Figure 2", "masked", "exception", "latency"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q", want)
		}
	}
	// Masked fraction must be identical across latency columns.
	if res.Table.Cell("masked", "25") != res.Table.Cell("masked", "100k") {
		t.Error("masked band must be latency-independent")
	}
}

func TestCampaignAndTables(t *testing.T) {
	plain, err := Campaign(tinyOpts(), CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.AllTrials) == 0 {
		t.Fatal("no trials")
	}
	fig4 := plain.Table("Figure 4", inject.DetectorPerfect)
	fig5 := plain.Table("Figure 5", inject.DetectorJRS)
	if !strings.Contains(fig4.Render(), "interval") {
		t.Error("fig4 table malformed")
	}
	// Perfect detection covers at least as much as JRS at every interval,
	// within a small-sample tolerance: JRS fires at branch RESOLUTION
	// while the perfect detector observes committed divergence, so on a
	// handful of trials JRS can legitimately catch a fault a little
	// earlier.
	eps := 2.0 / float64(len(plain.AllTrials))
	for _, iv := range UArchIntervals {
		col := formatCount(iv)
		if fig4.Cell("cfv", col) < fig5.Cell("cfv", col)-eps {
			t.Errorf("perfect cfv < JRS cfv at interval %d", iv)
		}
		if plain.FailureRateAt(iv, inject.DetectorPerfect) > plain.FailureRateAt(iv, inject.DetectorJRS)+eps {
			t.Errorf("perfect detector left more failures at %d", iv)
		}
	}
	if rr := plain.RawFailureRate(); rr <= 0 || rr > 0.4 {
		t.Errorf("raw failure rate %.3f implausible", rr)
	}
}

func TestHardenedCampaignAndSummary(t *testing.T) {
	opts := tinyOpts()
	plain, err := Campaign(opts, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Campaign(opts, CampaignConfig{Harden: harden.LowHangingFruit})
	if err != nil {
		t.Fatal(err)
	}
	if !hard.Hardened || plain.Hardened {
		t.Error("hardened flags wrong")
	}

	s := Summarize(plain, hard, 100)
	t.Logf("summary: %+v", s)
	if s.BaselineFailureRate <= 0 {
		t.Fatal("baseline failure rate zero")
	}
	if s.ReStoreFailureRate > s.BaselineFailureRate+1e-9 {
		t.Error("ReStore failed to reduce the failure rate")
	}
	if s.CombinedFailureRate > s.LHFFailureRate+1e-9 {
		t.Error("combined protection weaker than lhf alone")
	}
	if s.ReStoreMTBFGain < 1 {
		t.Errorf("ReStore MTBF gain %.2f < 1", s.ReStoreMTBFGain)
	}

	fig8 := Fig8(plain, hard, 100)
	if len(fig8.Series) == 0 || fig8.GoalFIT < 100 || fig8.GoalFIT > 130 {
		t.Errorf("fig8 malformed: %d series, goal %.1f", len(fig8.Series), fig8.GoalFIT)
	}
	if !strings.Contains(fig8.Table, "Figure 8") {
		t.Error("fig8 table missing title")
	}
	if fig8.Improvements[fit.Baseline] != 1.0 {
		t.Errorf("baseline improvement = %v", fig8.Improvements[fit.Baseline])
	}
}

func TestFig8PaperFallback(t *testing.T) {
	res := Fig8(nil, nil, 100)
	if math.Abs(res.Improvements[fit.ReStore]-2.0) > 1e-9 ||
		math.Abs(res.Improvements[fit.LHFReStore]-7.0) > 1e-9 {
		t.Errorf("paper fallback wrong: %+v", res.Improvements)
	}
}

func TestFig7EndToEnd(t *testing.T) {
	opts := tinyOpts()
	res, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Imm.X) != len(Fig7Intervals) {
		t.Fatalf("sweep length %d", len(res.Imm.X))
	}
	for i := range res.Imm.Y {
		if res.Imm.Y[i] <= 0 || res.Imm.Y[i] > 1 {
			t.Errorf("imm speedup[%d] = %v", i, res.Imm.Y[i])
		}
	}
	if !strings.Contains(res.Table, "Figure 7") {
		t.Error("table missing title")
	}
}

func TestMeasureRestoreRun(t *testing.T) {
	rep, err := MeasureRestoreRun(workload.Gzip, 42, 10_000, restore.Config{Interval: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retired < 10_000 || rep.Checkpoints == 0 {
		t.Errorf("report: %+v", rep)
	}
}

func TestFormatCount(t *testing.T) {
	tests := []struct {
		in   uint64
		want string
	}{
		{25, "25"}, {1000, "1k"}, {2000, "2k"}, {100_000, "100k"},
		{1_000_000, "1M"}, {1500, "1500"},
	}
	for _, tt := range tests {
		if got := formatCount(tt.in); got != tt.want {
			t.Errorf("formatCount(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestAblateJRS(t *testing.T) {
	opts := Options{
		Seed: 42, Scale: 0.5, TrialFactor: 0.15,
		Benchmarks: []workload.Benchmark{workload.MCF},
	}
	res, err := AblateJRS(opts, []uint8{4, 15}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	loose, strict := res.Rows[0], res.Rows[1]
	t.Logf("threshold 4: rate=%.5f cov=%.2f speedup=%.3f", loose.SymptomRate, loose.Coverage, loose.Speedup)
	t.Logf("threshold 15: rate=%.5f cov=%.2f speedup=%.3f", strict.SymptomRate, strict.Coverage, strict.Speedup)
	// A looser threshold flags at least as many symptoms and costs at
	// least as much performance.
	if loose.SymptomRate+1e-12 < strict.SymptomRate {
		t.Error("loose threshold produced fewer symptoms than strict")
	}
	if loose.Speedup > strict.Speedup+1e-9 {
		t.Error("loose threshold should not be faster")
	}
	if !strings.Contains(res.Render(), "threshold") {
		t.Error("render malformed")
	}
}

func TestAblateCheckpoints(t *testing.T) {
	opts := tinyOpts()
	exp, err := Campaign(opts, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mean := perf.Inputs{BaseCPI: 0.8, ReplayCPI: 0.7, SymptomRate: 1e-3, FlushPenalty: 20}
	res := AblateCheckpoints(exp, mean, 100, []int{1, 2, 4, 8})
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Coverage must be non-decreasing in depth; speedup non-increasing.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Coverage+1e-9 < res.Rows[i-1].Coverage {
			t.Errorf("coverage decreased at depth %d", res.Rows[i].Checkpoints)
		}
		if res.Rows[i].Speedup > res.Rows[i-1].Speedup+1e-9 {
			t.Errorf("speedup increased at depth %d", res.Rows[i].Checkpoints)
		}
	}
	if !strings.Contains(res.Render(), "checkpoints") {
		t.Error("render malformed")
	}
	if len(AblationBenchmarks()) == 0 {
		t.Error("no ablation benchmarks")
	}
}

// TestDurabilityOptionThreading pins the Options→campaign-config plumbing:
// golden-image paths, journal compression and shard assignment must reach
// both campaign kinds, and golden images must not require a CampaignRoot.
func TestDurabilityOptionThreading(t *testing.T) {
	o := Options{
		CampaignRoot:    "root",
		GoldenImageRoot: "golden",
		CompressJournal: true,
		ShardIndex:      1,
		ShardCount:      3,
	}
	vmID := inject.VMConfig{Bench: workload.Gzip, Trials: 10, Window: 1000}.CampaignID()
	vm := o.exec(vmID)
	if vm.ResumeFrom != filepath.Join("root", vmID) {
		t.Errorf("vm ResumeFrom = %q", vm.ResumeFrom)
	}
	if !vm.CompressJournal || vm.ShardIndex != 1 || vm.ShardCount != 3 {
		t.Errorf("vm durability options not threaded: %+v", vm)
	}
	if vm.GoldenImage != filepath.Join("golden", vmID+".golden") {
		t.Errorf("vm GoldenImage = %q", vm.GoldenImage)
	}
	uaID := inject.UArchConfig{Bench: workload.Gzip, Points: 2, TrialsPerPoint: 3}.CampaignID()
	ua := o.exec(uaID)
	if ua.ResumeFrom != filepath.Join("root", uaID) {
		t.Errorf("uarch ResumeFrom = %q", ua.ResumeFrom)
	}
	if !ua.CompressJournal || ua.ShardIndex != 1 || ua.ShardCount != 3 {
		t.Errorf("uarch durability options not threaded: %+v", ua)
	}
	if ua.GoldenImage != filepath.Join("golden", uaID+".golden") {
		t.Errorf("uarch GoldenImage = %q", ua.GoldenImage)
	}

	// Golden images stand alone: no CampaignRoot needed.
	solo := Options{GoldenImageRoot: "g"}.exec(inject.VMConfig{Bench: workload.MCF}.CampaignID())
	if solo.GoldenImage == "" || solo.ResumeFrom != "" {
		t.Errorf("golden-only threading wrong: %+v", solo)
	}
	// CompressJournal without a CampaignRoot is inert — there is no journal.
	if noRoot := (Options{CompressJournal: true}).exec(inject.VMConfig{}.CampaignID()); noRoot.CompressJournal {
		t.Error("CompressJournal leaked without CampaignRoot")
	}
}

// TestFig2GoldenImageRoot runs the same experiment three times — plain, with
// a fresh GoldenImageRoot (writes the image), and again over the populated
// root (restores it) — and requires byte-identical campaign results plus one
// .golden file per benchmark.
func TestFig2GoldenImageRoot(t *testing.T) {
	opts := tinyOpts()
	opts.Benchmarks = []workload.Benchmark{workload.Gzip}
	plain, err := Fig2(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	opts.GoldenImageRoot = t.TempDir()
	warm, err := Fig2(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	images, err := filepath.Glob(filepath.Join(opts.GoldenImageRoot, "*.golden"))
	if err != nil || len(images) != 1 {
		t.Fatalf("golden images = %v (err %v), want exactly 1", images, err)
	}
	restored, err := Fig2(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.AllTrials, warm.AllTrials) {
		t.Error("warm-save run diverged from plain run")
	}
	if !reflect.DeepEqual(plain.AllTrials, restored.AllTrials) {
		t.Error("golden-restored run diverged from plain run")
	}
}
