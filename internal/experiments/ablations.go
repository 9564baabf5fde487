package experiments

import (
	"fmt"
	"math"

	"repro/internal/inject"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/predictor"
	"repro/internal/restore"
	"repro/internal/workload"
)

// Ablation studies: the design-choice sweeps the paper gestures at without
// tabulating. Section 3.2.2 notes that "the different confidence prediction
// implementations trade off performance for error detection latency", and
// Section 5.2.3's rollback-distance arithmetic depends directly on how many
// checkpoints are live. These sweeps quantify both knobs.

// JRSAblationRow is one point of the confidence-threshold sweep.
type JRSAblationRow struct {
	Threshold uint8
	// SymptomRate is high-confidence mispredicts per retired instruction
	// on fault-free runs (the false-positive driver).
	SymptomRate float64
	// Coverage is the fraction of failing faults covered at the given
	// interval with the JRS detector at this threshold.
	Coverage float64
	// Speedup is the modelled relative performance at the interval.
	Speedup float64
}

// JRSAblationResult sweeps the JRS saturation threshold.
type JRSAblationResult struct {
	Interval uint64
	Rows     []JRSAblationRow
}

// AblateJRS sweeps the JRS confidence threshold, measuring for each setting
// the fault coverage (campaign, JRS detector), the fault-free symptom rate,
// and the modelled performance. Low thresholds flag more mispredictions as
// high confidence: more coverage, more false positives.
func AblateJRS(opts Options, thresholds []uint8, interval uint64) (*JRSAblationResult, error) {
	opts.applyDefaults()
	if len(thresholds) == 0 {
		thresholds = []uint8{4, 8, 12, 15}
	}
	if interval == 0 {
		interval = 100
	}
	res := &JRSAblationResult{Interval: interval}
	for _, th := range thresholds {
		pcfg := pipeline.DefaultConfig()
		pcfg.JRS = predictor.JRSConfig{TableBits: 12, CounterMax: 15, Threshold: th}

		var (
			trials []inject.UArchTrial
			inputs []perf.Inputs
		)
		for _, bench := range opts.Benchmarks {
			cfg := inject.UArchConfig{
				Bench:          bench,
				Seed:           opts.Seed,
				Scale:          opts.Scale,
				Points:         scaleCount(12, opts.TrialFactor, 3),
				TrialsPerPoint: scaleCount(60, opts.TrialFactor, 10),
				Pipeline:       &pcfg,
			}
			cfg.Exec = opts.exec(cfg.CampaignID())
			r, err := inject.RunUArch(cfg)
			if err != nil {
				return nil, fmt.Errorf("ablate-jrs %s threshold %d: %w", bench, th, err)
			}
			trials = append(trials, r.Trials...)

			in, err := perf.MeasureInputs(bench, opts.Seed, 100_000, pcfg)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, in)
		}

		raw := inject.RawFailureRate(trials)
		cov := 0.0
		if raw > 0 {
			cov = 1 - inject.FailureRate(trials, interval, inject.DetectorJRS)/raw
		}
		mean := perf.Average(inputs)
		res.Rows = append(res.Rows, JRSAblationRow{
			Threshold:   th,
			SymptomRate: mean.SymptomRate,
			Coverage:    cov,
			Speedup:     perf.Speedup(mean, interval, restore.PolicyImmediate),
		})
	}
	return res, nil
}

// Render formats the sweep as a table.
func (r *JRSAblationResult) Render() string {
	out := fmt.Sprintf("JRS confidence-threshold ablation (interval %d)\n", r.Interval)
	out += fmt.Sprintf("%-10s %14s %12s %10s\n", "threshold", "symptoms/kinsn", "coverage", "speedup")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-10d %14.3f %11.1f%% %10.3f\n",
			row.Threshold, 1000*row.SymptomRate, 100*row.Coverage, row.Speedup)
	}
	return out
}

// CheckpointAblationRow is one point of the checkpoint-depth sweep.
type CheckpointAblationRow struct {
	Checkpoints int
	// Reach is the guaranteed rollback distance in instructions.
	Reach uint64
	// Coverage is the fraction of failures whose symptoms land within
	// the reach (perfect cfv detection).
	Coverage float64
	// Speedup is the modelled performance with the longer mean rollback
	// re-execution this depth implies.
	Speedup float64
}

// CheckpointAblationResult sweeps the number of live checkpoints.
type CheckpointAblationResult struct {
	Interval uint64
	Rows     []CheckpointAblationRow
}

// AblateCheckpoints reuses one campaign and asks, for k live checkpoints at
// a fixed interval L: symptoms up to (k-1)·L instructions after the fault
// can still roll back to a pre-fault checkpoint, but the mean re-execution
// distance grows to (k-0.5)·L. More checkpoints buy detection-latency
// slack with re-execution time (and checkpoint storage).
func AblateCheckpoints(exp *UArchExperiment, mean perf.Inputs, interval uint64, depths []int) *CheckpointAblationResult {
	if interval == 0 {
		interval = 100
	}
	if len(depths) == 0 {
		depths = []int{1, 2, 3, 4, 8}
	}
	res := &CheckpointAblationResult{Interval: interval}
	raw := exp.RawFailureRate()
	for _, k := range depths {
		if k < 1 {
			continue
		}
		reach := uint64(k-1) * interval
		if k == 1 {
			// A single checkpoint can only help symptoms inside the
			// current interval; conservatively credit none of the
			// interval (the checkpoint may be mid-fault).
			reach = interval / 2
		}
		cov := 0.0
		if raw > 0 {
			cov = 1 - exp.FailureRateAt(reach, inject.DetectorPerfect)/raw
		}
		// Mean rollback distance (k-0.5)·L at the measured symptom rate.
		dist := (float64(k) - 0.5) * float64(interval)
		over := mean.SymptomRate * (mean.FlushPenalty + dist*mean.ReplayCPI)
		speedup := mean.BaseCPI / (mean.BaseCPI + over)
		if math.IsNaN(speedup) {
			speedup = 1
		}
		res.Rows = append(res.Rows, CheckpointAblationRow{
			Checkpoints: k,
			Reach:       reach,
			Coverage:    cov,
			Speedup:     speedup,
		})
	}
	return res
}

// Render formats the sweep as a table.
func (r *CheckpointAblationResult) Render() string {
	out := fmt.Sprintf("checkpoint-depth ablation (interval %d)\n", r.Interval)
	out += fmt.Sprintf("%-12s %10s %12s %10s\n", "checkpoints", "reach", "coverage", "speedup")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-12d %10d %11.1f%% %10.3f\n",
			row.Checkpoints, row.Reach, 100*row.Coverage, row.Speedup)
	}
	return out
}

// AblationBenchmarks is the reduced suite ablations default to (they sweep
// a config dimension, so each point re-runs a campaign).
func AblationBenchmarks() []workload.Benchmark {
	return []workload.Benchmark{workload.MCF, workload.GCC, workload.Vortex}
}
