// Package experiments orchestrates the paper's evaluation: one entry point
// per table/figure, shared by the restore-sim command and the benchmark
// harness. Each experiment returns both raw results and a rendered table so
// paper-vs-measured comparisons are mechanical.
package experiments

import (
	"fmt"
	"path/filepath"
	"strconv"

	"repro/internal/fit"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/protect"
	"repro/internal/restore"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options scales and seeds every experiment.
type Options struct {
	// Seed drives workload generation and injection sampling.
	Seed int64
	// Scale multiplies workload data-structure sizes (0 = 1.0).
	Scale float64
	// TrialFactor scales campaign sizes: 1.0 reproduces paper-scale
	// campaigns (~1000 software trials and ~1750 microarchitectural
	// trials per benchmark); tests use small fractions (0 = 1.0).
	TrialFactor float64
	// Benchmarks restricts the suite (nil = all seven).
	Benchmarks []workload.Benchmark
	// Workers fans each campaign's trials out across goroutines (0 =
	// serial). Campaign results are bit-identical for every worker count.
	Workers int
	// Progress, if set, receives per-trial completion ticks from each
	// campaign; with Workers > 1 it is called from worker goroutines and
	// must be safe for concurrent use.
	Progress func(done, total int)
	// Obs, if non-nil, receives campaign/pipeline telemetry from every
	// campaign an experiment runs (see internal/obs). Purely
	// observational: experiment results are byte-identical with or
	// without a sink.
	Obs obs.Sink
	// CampaignRoot, if non-empty, makes every injection campaign durable:
	// each campaign journals completed trials into
	// CampaignRoot/<CampaignID> (see internal/campaignio) and a rerun of
	// the same experiment resumes from the journal, re-running only the
	// missing trials. Results are byte-identical to a non-durable run.
	CampaignRoot string
	// ShardIndex and ShardCount split every campaign's trial slots across
	// cooperating processes: slot s belongs to the shard with
	// s % ShardCount == ShardIndex. Sharding requires CampaignRoot; the
	// shard roots are merged with campaignio.MergeRoots (the
	// `restore-sim merge` subcommand), and rerunning the experiment with
	// the merged root as CampaignRoot prints the full results without
	// re-running a trial. Zero values mean unsharded.
	ShardIndex int
	ShardCount int
	// GoldenImageRoot, if non-empty, holds the warmed-state golden images
	// of microarchitectural campaigns, one per warm-up (see
	// inject.Exec.GoldenImageDir and internal/ckptio): the first campaign
	// with a given warm-up writes uarch-<bench>-<fingerprint>.golden there,
	// and every later campaign with that warm-up restores it instead of
	// re-executing the warm-up. Software-level (VM) campaigns ignore it.
	// Results are byte-identical either way.
	GoldenImageRoot string
	// Interrupt, if non-nil, stops every campaign at the next trial
	// boundary once the channel is closed. Durable campaigns drain and
	// flush their journal first; the experiment then returns an error
	// wrapping inject.ErrInterrupted.
	Interrupt <-chan struct{}

	// pipeline overrides the processor configuration of microarchitectural
	// campaigns (nil = pipeline.DefaultConfig); in-package tests set a tiny
	// WatchdogCycles to force truncated campaigns.
	pipeline *pipeline.Config
}

// exec derives a campaign's execution options from the experiment options.
// id is the campaign's CampaignID, which names its journal directory.
func (o Options) exec(id string) inject.Exec {
	x := inject.Exec{Workers: o.Workers, Progress: o.Progress, Obs: o.Obs,
		GoldenImageDir: o.GoldenImageRoot, Interrupt: o.Interrupt}
	if o.CampaignRoot != "" {
		x.ResumeFrom = filepath.Join(o.CampaignRoot, id)
		x.ShardIndex, x.ShardCount = o.ShardIndex, o.ShardCount
	}
	return x
}

func (o *Options) applyDefaults() {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.TrialFactor == 0 {
		o.TrialFactor = 1.0
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.Benchmarks()
	}
}

func scaleCount(base int, factor float64, min int) int {
	n := int(float64(base) * factor)
	if n < min {
		n = min
	}
	return n
}

// Fig2LatencyBins is the x-axis of Figure 2 (instructions from injection to
// symptom); the final bin plays the figure's "inf" column bounded by the
// observation window.
var Fig2LatencyBins = []uint64{25, 50, 100, 200, 500, 1_000, 10_000, 100_000}

// Fig2Result holds the software-level campaign for all benchmarks.
type Fig2Result struct {
	Low32     bool
	PerBench  map[workload.Benchmark]*inject.VMResult
	AllTrials []inject.VMTrial
	Table     *stats.StackedTable
}

// Fig2 runs the virtual-machine fault-injection campaign of Section 3.1.
func Fig2(opts Options, low32 bool) (*Fig2Result, error) {
	opts.applyDefaults()
	res := &Fig2Result{
		Low32:    low32,
		PerBench: make(map[workload.Benchmark]*inject.VMResult, len(opts.Benchmarks)),
	}
	for _, bench := range opts.Benchmarks {
		cfg := inject.VMConfig{
			Bench:  bench,
			Seed:   opts.Seed,
			Scale:  opts.Scale,
			Trials: scaleCount(1000, opts.TrialFactor, 40),
			Window: 100_000,
			Low32:  low32,
		}
		cfg.Exec = opts.exec(cfg.CampaignID())
		r, err := inject.RunVM(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", bench, err)
		}
		res.PerBench[bench] = r
		res.AllTrials = append(res.AllTrials, r.Trials...)
	}

	title := "Figure 2: virtual machine fault injection (symptom category vs detection latency)"
	if low32 {
		title = "Section 3.1 variant: injections restricted to result bits 0..31"
	}
	res.Table = stats.NewStackedTable(title, "latency", inject.VMCategories())
	for _, lat := range Fig2LatencyBins {
		d := inject.VMDistribution(res.AllTrials, lat)
		res.Table.AddColumn(formatCount(lat), d)
	}
	return res, nil
}

// UArchIntervals is the checkpoint-interval x-axis of Figures 4-6.
var UArchIntervals = []uint64{25, 50, 100, 200, 500, 1_000, 2_000}

// UArchExperiment holds one microarchitectural campaign across benchmarks.
// The same campaign serves Figure 4 (perfect detection), Figure 5 (JRS) and
// the Section 5.2.1 oracle-confidence ablation, because each trial records
// every symptom's latency.
type UArchExperiment struct {
	LatchesOnly bool
	Hardened    bool
	PerBench    map[workload.Benchmark]*inject.UArchResult
	AllTrials   []inject.UArchTrial
}

// CampaignConfig selects the microarchitectural campaign variant.
type CampaignConfig struct {
	LatchesOnly bool
	// Hardened protects the pipeline with the paper's parity/ECC placement
	// (protect.LowHangingFruit): Figure 6's hardened pipeline.
	Hardened bool
}

// Campaign runs the microarchitectural injection campaign of Section 4.2.
func Campaign(opts Options, cc CampaignConfig) (*UArchExperiment, error) {
	opts.applyDefaults()
	exp := &UArchExperiment{
		LatchesOnly: cc.LatchesOnly,
		Hardened:    cc.Hardened,
		PerBench:    make(map[workload.Benchmark]*inject.UArchResult, len(opts.Benchmarks)),
	}
	for _, bench := range opts.Benchmarks {
		r, err := runCampaign(opts, bench, cc)
		if err != nil {
			return nil, fmt.Errorf("uarch campaign %s: %w", bench, err)
		}
		exp.PerBench[bench] = r
		exp.AllTrials = append(exp.AllTrials, r.Trials...)
	}
	return exp, nil
}

// runCampaign runs one benchmark's microarchitectural campaign.
func runCampaign(opts Options, bench workload.Benchmark, cc CampaignConfig) (*inject.UArchResult, error) {
	cfg := inject.UArchConfig{
		Bench:          bench,
		Seed:           opts.Seed,
		Scale:          opts.Scale,
		Points:         scaleCount(25, opts.TrialFactor, 4),
		TrialsPerPoint: scaleCount(70, opts.TrialFactor, 12),
		WindowCycles:   10_000,
		LatchesOnly:    cc.LatchesOnly,
		Pipeline:       opts.pipeline,
	}
	if cc.Hardened {
		cfg.Policy = protect.LowHangingFruit()
	}
	cfg.Exec = opts.exec(cfg.CampaignID())
	return inject.RunUArch(cfg)
}

// Table renders the campaign at every checkpoint interval under a detector:
// Figure 4 with DetectorPerfect, Figure 5 with DetectorJRS, Figure 6 is the
// hardened campaign with DetectorJRS.
func (e *UArchExperiment) Table(title string, det inject.Detector) *stats.StackedTable {
	t := stats.NewStackedTable(title, "interval", inject.UArchCategories())
	for _, iv := range UArchIntervals {
		t.AddColumn(formatCount(iv), inject.UArchDistribution(e.AllTrials, iv, det))
	}
	return t
}

// FailureRateAt returns the uncovered-failure fraction at an interval.
func (e *UArchExperiment) FailureRateAt(interval uint64, det inject.Detector) float64 {
	return inject.FailureRate(e.AllTrials, interval, det)
}

// RawFailureRate returns the baseline (no detection) failure fraction.
func (e *UArchExperiment) RawFailureRate() float64 {
	return inject.RawFailureRate(e.AllTrials)
}

// Fig7Result holds the performance-impact sweep: the analytic model's two
// policy series plus a directly simulated immediate-policy series that
// validates the model against the real ReStore processor.
type Fig7Result struct {
	PerBench  map[workload.Benchmark]perf.Inputs
	Mean      perf.Inputs
	Imm       stats.Series
	Delayed   stats.Series
	Simulated stats.Series
	Table     string
}

// Fig7Intervals is Figure 7's x-axis.
var Fig7Intervals = []uint64{50, 100, 200, 500, 1_000}

// Fig7 measures timing-model inputs on the pipeline per benchmark and
// evaluates the false-positive cost model for both rollback policies.
func Fig7(opts Options) (*Fig7Result, error) {
	opts.applyDefaults()
	res := &Fig7Result{PerBench: make(map[workload.Benchmark]perf.Inputs, len(opts.Benchmarks))}
	var all []perf.Inputs
	wcfg := workload.Config{Seed: opts.Seed, Scale: opts.Scale}
	insts := uint64(scaleCount(200_000, opts.TrialFactor, 30_000))
	for _, bench := range opts.Benchmarks {
		in, err := perf.MeasureInputs(bench, wcfg, insts, pipeline.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", bench, err)
		}
		res.PerBench[bench] = in
		all = append(all, in)
	}
	res.Mean = perf.Average(all)
	res.Imm, res.Delayed = perf.Sweep(res.Mean, Fig7Intervals)

	// Direct simulation of the immediate policy on a reduced window,
	// cross-checking the model.
	simInsts := uint64(scaleCount(30_000, opts.TrialFactor, 10_000))
	sim, err := perf.MeasureSweep(opts.Benchmarks, wcfg, simInsts,
		pipeline.DefaultConfig(), Fig7Intervals)
	if err != nil {
		return nil, err
	}
	res.Simulated = sim

	res.Table = stats.RenderSeriesTable(
		"Figure 7: performance impact of false positive symptoms (speedup vs baseline)",
		"interval", "%.4f", res.Imm, res.Delayed, res.Simulated)
	return res, nil
}

// Fig8Result holds the FIT scaling sweep.
type Fig8Result struct {
	Model        fit.Model
	Series       []stats.Series
	GoalFIT      float64
	Table        string
	Improvements map[fit.Variant]float64
}

// Fig8 builds the reliability-scaling model from measured campaign failure
// fractions and sweeps design size.
func Fig8(plain, hardened *UArchExperiment, interval uint64) *Fig8Result {
	model := fit.Model{
		RawPerBit: fit.RawFITPerBit,
		FailFrac: map[fit.Variant]float64{
			fit.Baseline:   plain.RawFailureRate(),
			fit.ReStore:    plain.FailureRateAt(interval, inject.DetectorJRS),
			fit.LHF:        hardened.RawFailureRate(),
			fit.LHFReStore: hardened.FailureRateAt(interval, inject.DetectorJRS),
		},
	}
	sizes := fit.DefaultSizes()
	series := model.Sweep(sizes)
	goal := fit.GoalFIT(1000)

	res := &Fig8Result{
		Model:        model,
		Series:       series,
		GoalFIT:      goal,
		Improvements: make(map[fit.Variant]float64, 4),
	}
	for _, v := range fit.Variants() {
		res.Improvements[v] = model.MTBFImprovement(v)
	}
	res.Table = stats.RenderSeriesTable(
		fmt.Sprintf("Figure 8: SDC FIT vs design size (1000-year MTBF goal = %.0f FIT)", goal),
		"bits", "%.3f", series...)
	return res
}

// Summary computes the paper's headline metrics from campaign results.
type Summary struct {
	BaselineFailureRate float64 // paper: ~0.07
	ReStoreFailureRate  float64 // paper: ~0.035 at interval 100
	LHFFailureRate      float64 // paper: ~0.03
	CombinedFailureRate float64 // paper: ~0.01
	ReStoreMTBFGain     float64 // paper: ~2x
	CombinedMTBFGain    float64 // paper: ~7x
}

// Summarize derives the headline numbers at the given checkpoint interval.
func Summarize(plain, hardened *UArchExperiment, interval uint64) Summary {
	s := Summary{
		BaselineFailureRate: plain.RawFailureRate(),
		ReStoreFailureRate:  plain.FailureRateAt(interval, inject.DetectorJRS),
		LHFFailureRate:      hardened.RawFailureRate(),
		CombinedFailureRate: hardened.FailureRateAt(interval, inject.DetectorJRS),
	}
	if s.ReStoreFailureRate > 0 {
		s.ReStoreMTBFGain = s.BaselineFailureRate / s.ReStoreFailureRate
	}
	if s.CombinedFailureRate > 0 {
		s.CombinedMTBFGain = s.BaselineFailureRate / s.CombinedFailureRate
	}
	return s
}

// MeasureRestoreRun exercises the full ReStore processor on a benchmark (a
// top-level integration helper used by examples and the CLI's demo mode).
func MeasureRestoreRun(bench workload.Benchmark, wcfg workload.Config, insts uint64, cfg restore.Config) (restore.Report, error) {
	prog, err := workload.Generate(bench, wcfg)
	if err != nil {
		return restore.Report{}, err
	}
	m, err := prog.NewMemory()
	if err != nil {
		return restore.Report{}, err
	}
	pipe, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		return restore.Report{}, err
	}
	proc := restore.New(pipe, cfg)
	return proc.Run(insts, insts*400)
}

func formatCount(v uint64) string {
	switch {
	case v >= 1_000_000 && v%1_000_000 == 0:
		return strconv.FormatUint(v/1_000_000, 10) + "M"
	case v >= 1_000 && v%1_000 == 0:
		return strconv.FormatUint(v/1_000, 10) + "k"
	default:
		return strconv.FormatUint(v, 10)
	}
}
