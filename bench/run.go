package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/workload"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// dir holds the run's campaign directories, images and daemon root.
	dir string
	// digestsPath names the committed digests; "" leaves every seed
	// unpinned (outputs are still checked round against round and against
	// the reference run).
	digestsPath string
	// trialFactor and benches override the workload's campaign size and
	// benchmark list (tests run miniatures); zero values keep the workload's.
	trialFactor float64
	benches     []workload.Benchmark
	out         io.Writer
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// report is the benchmark's result line. digests holds the first round's
// output digest of every operation that has one.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	digests   map[string]string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadRunner is one workload. setup prepares it (it runs setupReps
// times, with close in between); round runs one full pass of the workload's
// operations; verify makes the reference run that checks the outputs from
// outside after the measured region.
type workloadRunner interface {
	setup(r *runner) error
	round(r *runner, rd *round) error
	verify(r *runner)
	close() error
}

// paperReporter is a workload that keeps its first round's trials and prints
// the simulated statistics the paper reports next to the speed numbers. It is
// informational: nothing gates on it.
type paperReporter interface {
	paperReference(w io.Writer)
}

// round is what one pass of a workload did.
type round struct {
	index  int
	traced bool
	span   int // the round's root span (0 when untraced)
	wall   time.Duration
	// timed is the part of the round that trials_per_s divides by: the
	// whole round, except for durable-shards, where it is the write pass.
	timed  time.Duration
	trials int
	lat    map[string]float64 // seconds per latency-bearing operation, by op key
	alloc  uint64             // bytes allocated during the round
	disk   int64              // bytes the round left in durable storage
	jobs   []jobSample
}

// runner is the state shared by a run's workload, rounds and probes.
type runner struct {
	opts        options
	trialFactor float64
	benches     []workload.Benchmark
	workers     int // engine workers of each campaign call

	// tr and reg are set during traced rounds only; registry and tracer
	// persist across the run when tracing.
	tr       *tracer
	reg      *obs.Registry
	tracer   *tracer
	registry *obs.Registry
	obsSum   map[string]obs.Metric // counter and timer deltas over traced rounds

	pinned    map[string]string // committed digests for this workload and seed
	first     map[string]string // digests of the first round, by op key
	attempted int
	failed    int
	failures  []string
	// payloads are journal records of one finished campaign, replayed by
	// the campaignio probes.
	payloads [][]byte
	setups   int
}

// options returns the experiment options of one campaign call.
func (r *runner) options(benches []workload.Benchmark) experiments.Options {
	return experiments.Options{
		Seed:        r.opts.seed,
		TrialFactor: r.trialFactor,
		Benchmarks:  benches,
		Workers:     r.workers,
		Obs:         r.reg,
	}
}

// op records one attempted operation. A failed operation is one that
// errored or whose output digest differs from the committed one for this
// seed or from the one the same operation produced in the first round. An
// empty digest marks an operation without output of its own.
func (r *runner) op(key, digest string, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", key, err)
		return
	}
	if digest == "" {
		return
	}
	if r.pinned != nil {
		if want, ok := r.pinned[key]; !ok || want != digest {
			r.fail("%s: digest %.16s, committed %.16s", key, digest, want)
			return
		}
	}
	if prev, ok := r.first[key]; ok {
		if prev != digest {
			r.fail("%s: digest %.16s, first round gave %.16s", key, digest, prev)
		}
		return
	}
	r.first[key] = digest
}

// expect records a reference check: the operation must reproduce the digest
// the measured region recorded under key.
func (r *runner) expect(key, digest string, err error) {
	if err == nil && r.first[key] == "" {
		err = fmt.Errorf("no digest for %s in the measured region", key)
	} else if err == nil && digest != r.first[key] {
		err = fmt.Errorf("reference digest %.16s, measured %.16s", digest, r.first[key])
	}
	r.op("verify/"+key, "", err)
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func run(o options) (*report, error) {
	def := workloads[o.workload]
	r := &runner{
		opts:        o,
		trialFactor: def.trialFactor,
		benches:     workload.Benchmarks(),
		workers:     def.workers,
		first:       make(map[string]string),
		obsSum:      make(map[string]obs.Metric),
	}
	if o.trialFactor != 0 {
		r.trialFactor = o.trialFactor
	}
	if len(o.benches) > 0 {
		r.benches = o.benches
	}
	if o.trace {
		r.tracer, r.registry = newTracer(), obs.NewRegistry()
	}
	if o.digestsPath != "" {
		pinned, err := loadDigests(o.digestsPath, o.workload, o.seed)
		if err != nil {
			return nil, err
		}
		r.pinned = pinned
	}
	w := def.make()
	fmt.Fprintf(o.out, "workload %s seed %d seconds %g trace %t trial_factor %g benchmarks %d\n",
		o.workload, o.seed, o.seconds, o.trace, r.trialFactor, len(r.benches))

	setup := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		r.setups++
	}
	defer w.close()

	rounds, err := r.measure(w)
	if err != nil {
		return nil, err
	}
	rssMB := peakRSSMB()
	w.verify(r)

	metrics := make(map[string]float64)
	if o.trace {
		if err := r.layerMetrics(rounds, metrics); err != nil {
			return nil, err
		}
	} else {
		endToEndMetrics(rounds, median(setup), rssMB, metrics)
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	if p, ok := w.(paperReporter); ok {
		p.paperReference(o.out)
	}
	rep := &report{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]value),
		digests:   r.first,
	}
	set := endToEnd
	if o.trace {
		set = perLayer
	}
	for _, m := range set {
		v, ok := metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		rep.Metrics[m.name] = value{Value: v, Unit: m.unit}
		fmt.Fprintf(o.out, "metric %-34s %16.6f %s\n", m.name, v, m.unit)
	}
	r.printDigests()
	for _, f := range r.failures {
		fmt.Fprintln(o.out, "FAILED", f)
	}
	return rep, nil
}

// measure runs rounds while the next one, as long as the slowest so far, is
// expected to end within the run's seconds, and at least one. The reported
// metrics are medians over the rounds, so shorter rounds give steadier
// numbers. A traced run alternates untraced and traced rounds, so that
// tracing overhead is measured in the same process, and runs at least one of
// each.
func (r *runner) measure(w workloadRunner) ([]*round, error) {
	var rounds []*round
	var slowest time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		rd := &round{index: i, traced: r.opts.trace && i%2 == 1, lat: make(map[string]float64)}
		var before obs.Snapshot
		if rd.traced {
			r.tr, r.reg = r.tracer, r.registry
			before = r.registry.Snapshot()
			rd.span = r.tr.open(0, "bench.round", fmt.Sprintf("round-%d", i))
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		t0 := time.Now()
		if err := w.round(r, rd); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rd.wall = time.Since(t0)
		if rd.timed == 0 {
			rd.timed = rd.wall
		}
		runtime.ReadMemStats(&ms)
		rd.alloc = ms.TotalAlloc - alloc0
		if rd.traced {
			r.tr.close(rd.span)
			r.addObs(r.registry.Snapshot().Diff(before))
			r.tr, r.reg = nil, nil
		}
		rounds = append(rounds, rd)
		fmt.Fprintf(r.opts.out, "round %d traced %t wall %.3f s trials %d\n", i, rd.traced, rd.wall.Seconds(), rd.trials)
		slowest = max(slowest, rd.wall)
		if (time.Since(start)+slowest).Seconds() > r.opts.seconds && (!r.opts.trace || i >= 1) {
			return rounds, nil
		}
	}
}

// addObs accumulates the counter and timer deltas of one traced round.
func (r *runner) addObs(diff obs.Snapshot) {
	for _, m := range diff.Metrics {
		if m.Kind == "gauge" {
			continue
		}
		s := r.obsSum[m.Name]
		s.Name, s.Kind = m.Name, m.Kind
		s.Value += m.Value
		s.Count += m.Count
		r.obsSum[m.Name] = s
	}
}

func (r *runner) printDigests() {
	keys := make([]string, 0, len(r.first))
	for k := range r.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	state := "unpinned"
	if r.pinned != nil {
		state = "committed"
	}
	for _, k := range keys {
		fmt.Fprintf(r.opts.out, "digest %-40s %s %s\n", k, r.first[k], state)
	}
}

// writeTrace dumps the spans, their self times and the obs registry.
func (r *runner) writeTrace(path string) error {
	spans := r.tracer.snapshot()
	self := selfTimes(spans)
	type spanOut struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	out := struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Spans    []spanOut    `json:"spans"`
		Counters obs.Snapshot `json:"counters"`
	}{Workload: r.opts.workload, Seed: r.opts.seed, Counters: r.registry.Snapshot()}
	for _, s := range spans {
		out.Spans = append(out.Spans, spanOut{span: s, SelfNs: self[s.ID]})
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
