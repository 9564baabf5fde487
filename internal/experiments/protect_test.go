package experiments

import (
	"strings"
	"testing"

	"repro/internal/inject"
	"repro/internal/protect"
	"repro/internal/workload"
)

func TestMeasuredCoverage(t *testing.T) {
	pol := &protect.Policy{Name: "x", Kind: protect.KindStaticBudget,
		Assign: []protect.Assignment{{Elem: "fetchPC", Prot: protect.Parity}}}
	quiet := func(tr inject.UArchTrial) inject.UArchTrial {
		if tr.DeadlockLat == 0 {
			tr.DeadlockLat = inject.Never
		}
		if tr.ExcLat == 0 {
			tr.ExcLat = inject.Never
		}
		if tr.CFVLat == 0 {
			tr.CFVLat = inject.Never
		}
		return tr
	}
	trials := []inject.UArchTrial{
		quiet(inject.UArchTrial{Elem: "fetchPC", ArchCorrupt: true}), // failing, covered
		quiet(inject.UArchTrial{Elem: "rob.pc", DeadlockLat: 3}),     // failing, uncovered
		quiet(inject.UArchTrial{Elem: "fetchPC", Masked: true}),      // not failing
		quiet(inject.UArchTrial{Elem: "rob.pc", FaultStuck: true}),   // stuck in dead state: not failing
		quiet(inject.UArchTrial{Elem: "fetchPC", ExcLat: 7}),         // failing, covered
		quiet(inject.UArchTrial{Elem: "prf.val", CFVLat: 2}),         // failing, uncovered
	}
	if got, want := MeasuredCoverage(trials, pol), 2.0/4.0; got != want {
		t.Errorf("MeasuredCoverage = %v, want %v", got, want)
	}
	if got := MeasuredCoverage(nil, pol); got != 0 {
		t.Errorf("MeasuredCoverage(nil) = %v", got)
	}
	if got := MeasuredCoverage(trials, &protect.Policy{}); got != 0 {
		t.Errorf("coverage of empty policy = %v", got)
	}
}

// A bigger budget can only add protected elements (the greedy scan sees a
// larger remaining budget at every rank), so coverage — predicted and
// measured — is monotone along the sweep, and spending never overshoots.
func TestBudgetSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	budgets := []uint64{0, 200, 800, 1664, 4096}
	opts := Options{
		TrialFactor: 0.1,
		Benchmarks:  []workload.Benchmark{"gzip", "mcf"},
	}
	plain, err := Campaign(opts, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := BudgetSweep(opts, plain, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(budgets) {
		t.Fatalf("%d points for %d budgets", len(res.Points), len(budgets))
	}
	for i, pt := range res.Points {
		if pt.BudgetBits != budgets[i] {
			t.Errorf("point %d: budget %d, want %d", i, pt.BudgetBits, budgets[i])
		}
		if pt.SpentBits > 2*pt.BudgetBits { // two benchmarks share the table
			t.Errorf("budget %d: suite spent %d", pt.BudgetBits, pt.SpentBits)
		}
		if i == 0 {
			continue
		}
		prev := res.Points[i-1]
		if pt.Predicted < prev.Predicted {
			t.Errorf("predicted coverage fell from %v to %v at budget %d", prev.Predicted, pt.Predicted, pt.BudgetBits)
		}
		if pt.Measured < prev.Measured {
			t.Errorf("measured coverage fell from %v to %v at budget %d", prev.Measured, pt.Measured, pt.BudgetBits)
		}
	}
	if z := res.Points[0]; z.Measured != 0 || z.Predicted != 0 || z.SpentBits != 0 {
		t.Errorf("zero budget bought coverage: %+v", z)
	}
	if !strings.Contains(res.Table, "budget") {
		t.Errorf("sweep table malformed:\n%s", res.Table)
	}
}

// TestProtectAcceptance is the PR's acceptance gate, at the calibration's
// paper scale: for every benchmark, the policy derived from static
// analysis must measure at least the hand-picked placement's coverage at
// equal check-bit budget, and its static prediction must land within ±10
// percentage points of the measurement.
func TestProtectAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale campaigns are slow")
	}
	plain, err := Campaign(Options{}, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ProtectCompare(Options{}, plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(workload.Benchmarks()) {
		t.Fatalf("%d rows, want one per benchmark", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Failing == 0 {
			t.Errorf("%s: no failing baseline trials; comparison is vacuous", r.Bench)
			continue
		}
		if r.Static < r.LHF {
			t.Errorf("%s: static-derived coverage %.1f%% below hand-picked %.1f%% at equal budget",
				r.Bench, 100*r.Static, 100*r.LHF)
		}
		if d := r.Predicted - r.Static; d < -0.10 || d > 0.10 {
			t.Errorf("%s: predicted %.1f%% is %+.1fpp off measured %.1f%% (gate ±10pp)",
				r.Bench, 100*r.Predicted, 100*d, 100*r.Static)
		}
		if r.SpentBits > r.BudgetBits {
			t.Errorf("%s: spent %d check bits over the %d budget", r.Bench, r.SpentBits, r.BudgetBits)
		}
		if r.Policy == nil || r.Policy.Kind != protect.KindStaticBudget {
			t.Errorf("%s: malformed policy %+v", r.Bench, r.Policy)
		}
	}
	if !strings.Contains(res.Table, "mean") {
		t.Errorf("comparison table missing mean row:\n%s", res.Table)
	}
}
