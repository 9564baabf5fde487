package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/inject"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Truncated-campaign aggregation: when the golden pipeline halts during
// warm-up (forced here by an aggressive watchdog), campaigns return few or
// zero trials, and every table, rate, and summary an experiment derives from
// them must stay finite — the paper-facing output may be empty, never NaN.

func assertNoNaN(t *testing.T, label, text string) {
	t.Helper()
	if strings.Contains(text, "NaN") {
		t.Errorf("%s contains NaN:\n%s", label, text)
	}
}

func assertFinite(t *testing.T, label string, v float64) {
	t.Helper()
	if math.IsNaN(v) {
		t.Errorf("%s = NaN", label)
	}
}

func TestCampaignTruncatedDuringWarmup(t *testing.T) {
	pcfg := pipeline.DefaultConfig()
	// Fires on the first cold-cache miss chain, long before the warm-up
	// completes (the workloads never halt on their own).
	pcfg.WatchdogCycles = 64
	opts := Options{
		Seed:        7,
		Scale:       0.5,
		TrialFactor: 0.02,
		Benchmarks:  []workload.Benchmark{workload.MCF},
		pipeline:    &pcfg,
	}
	exp, err := Campaign(opts, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full := scaleCount(25, opts.TrialFactor, 4) * scaleCount(70, opts.TrialFactor, 12)
	if len(exp.AllTrials) >= full {
		t.Fatalf("campaign was not truncated: %d trials", len(exp.AllTrials))
	}

	tbl := exp.Table("truncated", inject.DetectorJRS)
	assertNoNaN(t, "Table.Render", tbl.Render())
	assertNoNaN(t, "Table.RenderCSV", tbl.RenderCSV())
	assertFinite(t, "FailureRateAt", exp.FailureRateAt(100, inject.DetectorJRS))
	assertFinite(t, "RawFailureRate", exp.RawFailureRate())

	s := Summarize(exp, exp, 100)
	for label, v := range map[string]float64{
		"BaselineFailureRate": s.BaselineFailureRate,
		"ReStoreFailureRate":  s.ReStoreFailureRate,
		"LHFFailureRate":      s.LHFFailureRate,
		"CombinedFailureRate": s.CombinedFailureRate,
		"ReStoreMTBFGain":     s.ReStoreMTBFGain,
		"CombinedMTBFGain":    s.CombinedMTBFGain,
	} {
		assertFinite(t, "Summary."+label, v)
	}

	assertNoNaN(t, "Fig8.Table", Fig8(exp, exp, 100).Table)
}

// The degenerate end of the same path: an experiment with no trials at all
// (every benchmark truncated to zero).
func TestEmptyExperimentAggregates(t *testing.T) {
	empty := &UArchExperiment{}
	tbl := empty.Table("empty", inject.DetectorPerfect)
	assertNoNaN(t, "Table.Render", tbl.Render())
	assertNoNaN(t, "Table.RenderCSV", tbl.RenderCSV())
	if got := empty.FailureRateAt(100, inject.DetectorJRS); got != 0 {
		t.Errorf("FailureRateAt on empty experiment = %v, want 0", got)
	}
	if got := empty.RawFailureRate(); got != 0 {
		t.Errorf("RawFailureRate on empty experiment = %v, want 0", got)
	}
	s := Summarize(empty, empty, 100)
	if s != (Summary{}) {
		t.Errorf("Summarize on empty experiments = %+v, want zero value", s)
	}
	assertNoNaN(t, "Fig8.Table", Fig8(empty, empty, 100).Table)
}
