package experiments

import (
	"fmt"
	"strings"

	"repro/internal/inject"
	"repro/internal/protect"
	"repro/internal/workload"
)

// The comparisons below exploit a determinism property of the campaign
// engines: every (point, trial) bit pick is pre-drawn from the seed before
// protection is consulted, so campaigns at the same seed visit identical
// picks under every policy. The measured coverage of ANY policy — the
// fraction of baseline failures its protected elements absorb — is therefore
// computable offline from one unprotected campaign's trials, which lets one
// suite of campaigns score the static-derived policy, the hand-picked
// placement, and every budget of a sweep, like-for-like.

// MeasuredCoverage scores a policy against unprotected campaign trials: the
// fraction of failing trials whose faulted element the policy covers (those
// flips would have been corrected or flushed on a hardened pipeline).
func MeasuredCoverage(trials []inject.UArchTrial, pol *protect.Policy) float64 {
	failing, absorbed := 0, 0
	for _, t := range trials {
		if !t.Failing() {
			continue
		}
		failing++
		if pol.ProtectionOf(t.Elem) != protect.Unprotected {
			absorbed++
		}
	}
	if failing == 0 {
		return 0
	}
	return float64(absorbed) / float64(failing)
}

// ProtectRow is one benchmark's static-vs-hand-picked comparison.
type ProtectRow struct {
	Bench      workload.Benchmark
	BudgetBits uint64 // equal budget (the hand-picked placement's overhead)
	SpentBits  uint64 // check bits the static policy actually consumed
	Predicted  float64
	Static     float64 // measured coverage of the static-derived policy
	LHF        float64 // measured coverage of the hand-picked placement
	Failing    int     // baseline failing trials
	Trials     int
	Policy     *protect.Policy
}

// ProtectCompareResult is the static→hardening acceptance experiment: per
// benchmark, a budgeted policy derived from static analysis scored against
// the paper's hand-picked placement at equal check-bit budget.
type ProtectCompareResult struct {
	Rows  []ProtectRow
	Table string
}

// ProtectCompare derives a static-budget policy per benchmark (at the
// hand-picked placement's budget) and scores it and the hand-picked placement
// against the same baseline failures: those of plain, the unprotected
// campaign over opts.Benchmarks.
func ProtectCompare(opts Options, plain *UArchExperiment) (*ProtectCompareResult, error) {
	opts.applyDefaults()
	lhf := protect.LowHangingFruit()
	res := &ProtectCompareResult{}
	for _, bench := range opts.Benchmarks {
		pol, rk, err := protect.Derive(bench, protect.DeriveOptions{
			Seed: opts.Seed, Scale: opts.Scale,
		})
		if err != nil {
			return nil, fmt.Errorf("protect %s: %w", bench, err)
		}
		r := plain.PerBench[bench]
		if r == nil {
			return nil, fmt.Errorf("protect %s: no unprotected campaign", bench)
		}
		failing := 0
		for _, t := range r.Trials {
			if t.Failing() {
				failing++
			}
		}
		res.Rows = append(res.Rows, ProtectRow{
			Bench:      bench,
			BudgetBits: pol.BudgetBits,
			SpentBits:  rk.CostOf(pol),
			Predicted:  pol.Predicted,
			Static:     MeasuredCoverage(r.Trials, pol),
			LHF:        MeasuredCoverage(r.Trials, lhf),
			Failing:    failing,
			Trials:     len(r.Trials),
			Policy:     pol,
		})
	}
	res.Table = renderProtectTable(res.Rows)
	return res, nil
}

func renderProtectTable(rows []ProtectRow) string {
	var b strings.Builder
	b.WriteString("budgeted protection: static-derived vs hand-picked placement (measured coverage of baseline failures)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %9s %9s %9s %9s\n",
		"bench", "budget", "spent", "static", "lhf", "predicted", "failing")
	var sf, sl, sp float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %8d %8.1f%% %8.1f%% %8.1f%% %6d/%d\n",
			r.Bench, r.BudgetBits, r.SpentBits,
			100*r.Static, 100*r.LHF, 100*r.Predicted, r.Failing, r.Trials)
		sf += r.Static
		sl += r.LHF
		sp += r.Predicted
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(&b, "%-10s %8s %8s %8.1f%% %8.1f%% %8.1f%%\n",
			"mean", "", "", 100*sf/n, 100*sl/n, 100*sp/n)
	}
	return b.String()
}

// BudgetPoint is the suite-level outcome at one check-bit budget.
type BudgetPoint struct {
	BudgetBits uint64
	SpentBits  uint64 // suite total actually consumed
	Predicted  float64
	Measured   float64 // suite coverage: absorbed / failing over all trials
}

// BudgetSweepResult is the coverage-vs-budget curve of the static optimizer.
type BudgetSweepResult struct {
	Points []BudgetPoint
	Table  string
}

// BudgetSweep reuses plain, the unprotected campaign over opts.Benchmarks,
// and one static ranking per benchmark to measure the coverage the optimizer
// buys at each budget — the marginal-return curve of the check-bit budget.
func BudgetSweep(opts Options, plain *UArchExperiment, budgets []uint64) (*BudgetSweepResult, error) {
	opts.applyDefaults()
	type benchState struct {
		bench  workload.Benchmark
		rk     *protect.Ranking
		trials []inject.UArchTrial
	}
	var states []benchState
	for _, bench := range opts.Benchmarks {
		_, rk, err := protect.Derive(bench, protect.DeriveOptions{
			Seed: opts.Seed, Scale: opts.Scale,
		})
		if err != nil {
			return nil, fmt.Errorf("budget-sweep %s: %w", bench, err)
		}
		r := plain.PerBench[bench]
		if r == nil {
			return nil, fmt.Errorf("budget-sweep %s: no unprotected campaign", bench)
		}
		states = append(states, benchState{bench: bench, rk: rk, trials: r.Trials})
	}
	res := &BudgetSweepResult{}
	for _, budget := range budgets {
		pt := BudgetPoint{BudgetBits: budget}
		failing, absorbed := 0, 0
		var predSum float64
		for _, st := range states {
			pol := protect.Optimize(fmt.Sprintf("static-budget/%s", st.bench), st.rk, budget)
			pt.SpentBits += st.rk.CostOf(pol)
			predSum += pol.Predicted
			for _, t := range st.trials {
				if !t.Failing() {
					continue
				}
				failing++
				if pol.ProtectionOf(t.Elem) != protect.Unprotected {
					absorbed++
				}
			}
		}
		if len(states) > 0 {
			pt.Predicted = predSum / float64(len(states))
		}
		if failing > 0 {
			pt.Measured = float64(absorbed) / float64(failing)
		}
		res.Points = append(res.Points, pt)
	}
	var b strings.Builder
	b.WriteString("coverage vs check-bit budget (static-derived policies, suite-wide)\n")
	fmt.Fprintf(&b, "%8s %10s %9s %9s\n", "budget", "spent", "measured", "predicted")
	for _, pt := range res.Points {
		fmt.Fprintf(&b, "%8d %10d %8.1f%% %8.1f%%\n",
			pt.BudgetBits, pt.SpentBits, 100*pt.Measured, 100*pt.Predicted)
	}
	res.Table = b.String()
	return res, nil
}
