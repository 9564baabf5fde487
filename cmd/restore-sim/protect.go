package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/protect"
)

// defaultSweepBudgets spans from a fraction of the hand-picked placement's
// overhead (1664 check bits over the default space) to several times it,
// bracketing the marginal-return knee.
var defaultSweepBudgets = []uint64{0, 416, 832, 1664, 3328, 6656}

// protectPolicies derives a budgeted protection policy per benchmark from
// the static vulnerability analysis and prints each as canonical JSON with
// its predicted coverage. No fault injection runs: this is the fast, static
// side of the loop, suitable for CI smoke and for inspecting what the
// optimizer chose. The printed JSON is output only: no subcommand reads it
// back. `restore-sim protect-compare` derives the same policies in process
// and measures them against injection campaigns.
func (c *cli) protectPolicies() error {
	fmt.Println("static-derived protection policies (no injection)")
	fmt.Printf("seed %d, scale %g, budget %s\n\n", c.opts.Seed, c.opts.Scale, budgetLabel(c.budget))
	type row struct {
		bench     string
		spent     uint64
		budget    uint64
		predicted float64
		elems     int
	}
	var rows []row
	for _, bench := range c.benchList() {
		pol, rk, err := protect.Derive(bench, protect.DeriveOptions{
			Seed: c.opts.Seed, Scale: c.opts.Scale, BudgetBits: c.budget,
		})
		if err != nil {
			return fmt.Errorf("protect %s: %w", bench, err)
		}
		out, err := json.MarshalIndent(pol, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("=== %s\n%s\n", bench, out)
		rows = append(rows, row{
			bench:     string(bench),
			spent:     rk.CostOf(pol),
			budget:    pol.BudgetBits,
			predicted: pol.Predicted,
			elems:     len(pol.Assign),
		})
	}
	fmt.Printf("\n%-10s %8s %8s %6s %10s\n", "bench", "budget", "spent", "elems", "predicted")
	for _, r := range rows {
		fmt.Printf("%-10s %8d %8d %6d %9.1f%%\n", r.bench, r.budget, r.spent, r.elems, 100*r.predicted)
	}
	fmt.Println("\n(predicted = protected share of the modeled failure mass; measure it")
	fmt.Println(" against injection campaigns with `restore-sim protect-compare`)")
	return nil
}

// protectCompare measures the derived policies: the unprotected campaign
// fig4 reports scores the static-derived placement against the paper's
// hand-picked one at equal check-bit budget.
func (c *cli) protectCompare() error {
	plain, err := c.campaign(false, false)
	if err != nil {
		return err
	}
	res, err := experiments.ProtectCompare(c.opts, plain)
	if err != nil {
		return err
	}
	fmt.Print(res.Table)
	return nil
}

// budgetSweep traces coverage against the check-bit budget, reusing fig4's
// unprotected campaign for every budget.
func (c *cli) budgetSweep() error {
	budgets := defaultSweepBudgets
	if c.budgets != "" {
		budgets = nil
		for _, f := range strings.Split(c.budgets, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return fmt.Errorf("invalid -budgets entry %q: %w", f, err)
			}
			budgets = append(budgets, n)
		}
	}
	plain, err := c.campaign(false, false)
	if err != nil {
		return err
	}
	res, err := experiments.BudgetSweep(c.opts, plain, budgets)
	if err != nil {
		return err
	}
	fmt.Print(res.Table)
	return nil
}

func budgetLabel(b uint64) string {
	if b == 0 {
		return "equal (hand-picked placement's overhead)"
	}
	return fmt.Sprintf("%d check bits", b)
}
