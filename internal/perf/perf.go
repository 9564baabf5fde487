// Package perf implements the high-level timing model of Section 5.2.3: the
// performance cost of false-positive symptoms, i.e. checkpoint rollbacks
// triggered by genuine high-confidence branch mispredictions in the absence
// of any fault.
//
// Following the paper, the model assumes two live checkpoints (so the mean
// rollback distance is 1.5 checkpoint intervals for the immediate policy and
// 2 intervals for the delayed policy), zero-latency checkpoint creation, and
// event-log-driven re-execution with perfect control-flow prediction. Its
// inputs are measured on the detailed pipeline; the model can also be
// cross-checked against direct simulation of the ReStore processor
// (MeasureSlowdown).
package perf

import (
	"fmt"
	"math"

	"repro/internal/pipeline"
	"repro/internal/restore"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Inputs are the workload-dependent parameters of the timing model.
type Inputs struct {
	// BaseCPI is cycles per retired instruction without ReStore.
	BaseCPI float64
	// ReplayCPI is cycles per instruction during event-log replay, where
	// branch outcomes are known and mispredictions vanish.
	ReplayCPI float64
	// SymptomRate is high-confidence mispredictions per retired
	// instruction (the false-positive trigger rate).
	SymptomRate float64
	// FlushPenalty is the fixed cycle cost of one rollback: pipeline
	// flush plus refetch-to-first-commit latency.
	FlushPenalty float64
}

// MeasureInputs runs the detailed pipeline on a benchmark generated under
// wcfg and derives the model inputs.
func MeasureInputs(bench workload.Benchmark, wcfg workload.Config, insts uint64, pcfg pipeline.Config) (Inputs, error) {
	prog, err := workload.Generate(bench, wcfg)
	if err != nil {
		return Inputs{}, err
	}
	m, err := prog.NewMemory()
	if err != nil {
		return Inputs{}, err
	}
	pipe, err := pipeline.New(pcfg, m, prog.Entry)
	if err != nil {
		return Inputs{}, err
	}
	retired := pipe.RunRetired(insts, insts*40)
	if retired == 0 {
		return Inputs{}, fmt.Errorf("perf: pipeline retired nothing on %s", bench)
	}
	s := pipe.Stats()
	baseCPI := float64(s.Cycles) / float64(s.Retired)

	// Replay CPI: committed mispredictions disappear under event-log
	// prediction; each one saves roughly a redirect's worth of cycles.
	mispPenalty := float64(pcfg.RedirectPenalty) + 4 // refill to first commit
	replayCPI := baseCPI - mispPenalty*float64(s.CommittedCondMispredicts)/float64(s.Retired)
	if replayCPI < 0.3 {
		replayCPI = 0.3
	}

	return Inputs{
		BaseCPI:      baseCPI,
		ReplayCPI:    replayCPI,
		SymptomRate:  float64(s.HCMispredicts) / float64(s.Retired),
		FlushPenalty: mispPenalty + 8, // rollback also reloads architectural state
	}, nil
}

// Average combines per-benchmark inputs into suite means (the paper reports
// suite-level bars).
func Average(inputs []Inputs) Inputs {
	if len(inputs) == 0 {
		return Inputs{}
	}
	var out Inputs
	for _, in := range inputs {
		out.BaseCPI += in.BaseCPI
		out.ReplayCPI += in.ReplayCPI
		out.SymptomRate += in.SymptomRate
		out.FlushPenalty += in.FlushPenalty
	}
	n := float64(len(inputs))
	out.BaseCPI /= n
	out.ReplayCPI /= n
	out.SymptomRate /= n
	out.FlushPenalty /= n
	return out
}

// Overhead returns the expected extra cycles per retired instruction for a
// checkpoint interval under a rollback policy.
//
// Immediate: every symptom triggers its own rollback; with two checkpoints
// the mean rollback distance is 1.5 intervals, all re-executed at replay
// CPI. Expected overhead/inst = rate × (flush + 1.5·L·replayCPI). Multiple
// symptoms within an interval each pay (the paper's stated disadvantage).
//
// Delayed: at most one rollback per interval, taken at the interval's end
// with a full two-interval re-execution. Expected overhead/inst =
// P(≥1 symptom in L)/L × (flush + 2·L·replayCPI), with the symptom count
// per interval approximated as Poisson(rate·L).
func Overhead(in Inputs, interval uint64, policy restore.Policy) float64 {
	elle := float64(interval)
	switch policy {
	case restore.PolicyDelayed:
		pAny := 1 - math.Exp(-in.SymptomRate*elle)
		return pAny / elle * (in.FlushPenalty + 2*elle*in.ReplayCPI)
	default: // immediate
		return in.SymptomRate * (in.FlushPenalty + 1.5*elle*in.ReplayCPI)
	}
}

// Speedup returns relative performance against a baseline without
// checkpoint rollbacks (1.0 = no loss), the y-axis of Figure 7.
func Speedup(in Inputs, interval uint64, policy restore.Policy) float64 {
	return in.BaseCPI / (in.BaseCPI + Overhead(in, interval, policy))
}

// Sweep evaluates both policies over the intervals, producing the two bar
// series of Figure 7.
func Sweep(in Inputs, intervals []uint64) (imm, delayed stats.Series) {
	imm.Name, delayed.Name = "imm", "delayed"
	for _, iv := range intervals {
		imm.Add(float64(iv), Speedup(in, iv, restore.PolicyImmediate))
		delayed.Add(float64(iv), Speedup(in, iv, restore.PolicyDelayed))
	}
	return imm, delayed
}

// MeasureSweep measures the slowdown MeasureSlowdown reports under the
// immediate policy at every interval for every benchmark and averages,
// producing a directly simulated counterpart to the analytic Figure 7
// series. The bare run does not depend on the interval, so each benchmark's
// runs once.
func MeasureSweep(benches []workload.Benchmark, wcfg workload.Config, insts uint64,
	pcfg pipeline.Config, intervals []uint64) (stats.Series, error) {

	s := stats.Series{Name: "simulated"}
	if len(benches) == 0 {
		// A sweep over no benchmarks has no mean to report; returning the
		// empty series beats filling it with 0/0 = NaN points.
		return s, nil
	}
	progs := make([]*workload.Program, len(benches))
	bare := make([]uint64, len(benches))
	for i, bench := range benches {
		var err error
		if progs[i], err = workload.Generate(bench, wcfg); err != nil {
			return stats.Series{}, fmt.Errorf("measure sweep %s: %w", bench, err)
		}
		if bare[i], err = bareCycles(progs[i], insts, pcfg); err != nil {
			return stats.Series{}, fmt.Errorf("measure sweep %s: %w", bench, err)
		}
	}
	for _, iv := range intervals {
		sum := 0.0
		for i, bench := range benches {
			cycles, err := restoreCycles(progs[i], insts, pcfg, restore.Config{Interval: iv, Policy: restore.PolicyImmediate})
			if err != nil {
				return stats.Series{}, fmt.Errorf("measure sweep %s @%d: %w", bench, iv, err)
			}
			sum += float64(bare[i]) / float64(cycles)
		}
		s.Add(float64(iv), sum/float64(len(benches)))
	}
	return s, nil
}

// MeasureSlowdown cross-checks the analytic model by direct simulation: it
// runs the same workload once on a bare pipeline and once under a ReStore
// processor (fault-free, so every rollback is a false positive) and returns
// the measured relative performance.
func MeasureSlowdown(bench workload.Benchmark, wcfg workload.Config, insts uint64,
	pcfg pipeline.Config, rcfg restore.Config) (float64, error) {

	prog, err := workload.Generate(bench, wcfg)
	if err != nil {
		return 0, err
	}
	base, err := bareCycles(prog, insts, pcfg)
	if err != nil {
		return 0, err
	}
	cycles, err := restoreCycles(prog, insts, pcfg, rcfg)
	if err != nil {
		return 0, err
	}
	return float64(base) / float64(cycles), nil
}

// bareCycles returns the cycles a bare pipeline takes to retire insts
// instructions of prog.
func bareCycles(prog *workload.Program, insts uint64, pcfg pipeline.Config) (uint64, error) {
	m, err := prog.NewMemory()
	if err != nil {
		return 0, err
	}
	bare, err := pipeline.New(pcfg, m, prog.Entry)
	if err != nil {
		return 0, err
	}
	if retired := bare.RunRetired(insts, insts*40); retired < insts {
		return 0, fmt.Errorf("perf: bare pipeline retired %d of %d", retired, insts)
	}
	return bare.Cycles(), nil
}

// restoreCycles returns the cycles a fault-free ReStore processor takes to
// retire insts instructions of prog.
func restoreCycles(prog *workload.Program, insts uint64, pcfg pipeline.Config, rcfg restore.Config) (uint64, error) {
	m, err := prog.NewMemory()
	if err != nil {
		return 0, err
	}
	pipe, err := pipeline.New(pcfg, m, prog.Entry)
	if err != nil {
		return 0, err
	}
	rep, err := restore.New(pipe, rcfg).Run(insts, insts*400)
	if err != nil {
		return 0, err
	}
	if rep.Retired < insts {
		return 0, fmt.Errorf("perf: restore run retired %d of %d", rep.Retired, insts)
	}
	return rep.Cycles, nil
}
