package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// metricDef names a reported metric, its unit and which direction is
// better. BENCHMARK.json lists the same metrics; bench_test.go holds the two
// in step.
type metricDef struct{ name, unit, better string }

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics of an untraced run: what a user of the campaign
// tools waits on and pays for. A round is one pass over the workload's
// operations; an operation is one campaign call per benchmark
// (uarch-paper, vm-par2), one shard run (durable-shards) or one job
// (service-jobs).
var endToEnd = []metricDef{
	{"trials_per_s", "trials/s", higher},       // median over rounds; durable-shards: write pass
	{"wall_s", "s", lower},                     // median wall time of a round
	{"op_latency_p50_s", "s", lower},           // median operation latency, over every round
	{"op_latency_p75_s", "s", lower},           // 75th percentile of the same
	{"alloc_kb_per_trial", "KiB/trial", lower}, // heap allocated per trial, over every round
	{"peak_rss_mb", "MiB", lower},              // VmHWM after the measured region
	{"setup_s", "s", lower},                    // median of the run's set-ups
}

// perLayer are the metrics of a traced run. Counts come from the obs
// registry attached to traced rounds (per round); timings of single calls
// come from the layer probes, which run after the measured region on the
// same programs and configurations. The sim_* counts are simulated work: a
// change meant only to speed the simulator up must leave them identical,
// whatever their direction says.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms", lower},
	{"pipeline.warmup_ms", "ms", lower},
	{"pipeline.cycle_ns", "ns", lower},
	{"pipeline.hash_ns", "ns", lower},
	{"pipeline.clone_us", "us", lower},
	{"pipeline.clone_kb", "KiB", lower},
	{"pipeline.resetfrom_us", "us", lower},
	{"pipeline.golden_record_ms", "ms", lower},
	{"pipeline.golden_write_ms", "ms", lower},
	{"pipeline.golden_load_ms", "ms", lower},
	{"pipeline.golden_image_kb", "KiB", lower},
	{"pipeline.sim_cycles", "count", lower},
	{"pipeline.sim_retired", "count", higher},
	{"ckptio.readall_ms", "ms", lower},
	{"ckptio.stored_ratio", "fraction", lower},
	{"arch.step_ns", "ns", lower},
	{"arch.sim_insts", "count", higher},
	{"mem.clone_us", "us", lower},
	{"mem.copyfrom_us", "us", lower},
	{"mem.restore_us", "us", lower},
	{"inject.worker_busy_frac", "fraction", higher},
	{"inject.queue_depth_p50", "tasks", lower},
	{"inject.mem_pool_hit_ratio", "fraction", higher},
	{"inject.clone_pool_hit_ratio", "fraction", higher},
	{"inject.journal_flushes", "count", lower},
	{"inject.resumed_slots", "count", higher},
	{"inject.golden_image_loaded", "count", higher},
	{"inject.golden_image_saved", "count", lower},
	{"inject.resume_ms", "ms", lower},
	{"campaignio.append_us", "us", lower},
	{"campaignio.flush_ms", "ms", lower},
	{"campaignio.scan_ms", "ms", lower},
	{"campaignio.merge_ms", "ms", lower},
	{"campaignio.journal_b_per_record", "B/record", lower},
	{"campaignio.disk_kb_per_trial", "KiB/trial", lower},
	{"service.submit_ms", "ms", lower},
	{"service.queue_wait_ms", "ms", lower},
	{"service.run_s", "s", lower},
	{"service.status_get_ms", "ms", lower},
	{"service.poll_lag_ms", "ms", lower},
	{"obs.trace_overhead_frac", "fraction", lower},
}

func endToEndMetrics(rounds []*round, setupS, rssMB float64, m map[string]float64) {
	var rates, walls []float64
	byOp := make(map[string][]float64)
	var alloc uint64
	trials := 0
	for _, rd := range rounds {
		rates = append(rates, float64(rd.trials)/rd.timed.Seconds())
		walls = append(walls, rd.wall.Seconds())
		for op, s := range rd.lat {
			byOp[op] = append(byOp[op], s)
		}
		alloc += rd.alloc
		trials += rd.trials
	}
	lat := opLatencies(byOp)
	m["trials_per_s"] = median(rates)
	m["wall_s"] = median(walls)
	m["op_latency_p50_s"] = quantile(lat, 0.50)
	m["op_latency_p75_s"] = quantile(lat, 0.75)
	m["alloc_kb_per_trial"] = float64(alloc) / 1024 / float64(max(trials, 1))
	m["peak_rss_mb"] = rssMB
	m["setup_s"] = setupS
}

// opLatencies is each operation's median latency over the rounds. Every
// round runs the same operations, so the latency quantiles are taken over
// operations, each at its typical latency: a burst of host load during one
// round moves an operation's median, not the tail of the pooled samples.
func opLatencies(byOp map[string][]float64) []float64 {
	lat := make([]float64, 0, len(byOp))
	for _, xs := range byOp {
		lat = append(lat, median(xs))
	}
	return lat
}

// layerMetrics fills the per-layer metrics of a traced run: counters from
// the traced rounds, the service timings of their jobs, the tracing
// overhead, and the layer probes. It also writes the trace file and prints
// the per-layer span table.
func (r *runner) layerMetrics(rounds []*round, m map[string]float64) error {
	var traced, untraced []float64
	var jobs []jobSample
	tracedRounds := 0
	var disk int64
	trials := 0
	for _, rd := range rounds {
		disk += rd.disk
		trials += rd.trials
		if !rd.traced {
			untraced = append(untraced, rd.wall.Seconds())
			continue
		}
		tracedRounds++
		traced = append(traced, rd.wall.Seconds())
		jobs = append(jobs, rd.jobs...)
	}
	m["obs.trace_overhead_frac"] = median(traced)/median(untraced) - 1
	m["campaignio.disk_kb_per_trial"] = float64(disk) / 1024 / float64(max(trials, 1))

	perRound := func(names ...string) float64 {
		total := 0.0
		for _, n := range names {
			total += r.obsSum[n].Value
		}
		return total / float64(tracedRounds)
	}
	both := func(suffix string) []string {
		return []string{"campaign_uarch_" + suffix, "campaign_vm_" + suffix}
	}
	ratio := func(hits, misses string) float64 {
		h, mi := r.obsSum[hits].Value, r.obsSum[misses].Value
		if h+mi == 0 {
			return 0
		}
		return h / (h + mi)
	}
	busy := perRound(both("worker_busy")...)
	wall := perRound(both("wall")...)
	m["inject.worker_busy_frac"] = busy / math.Max(wall*float64(max(r.workers, 1)), 1e-9)
	m["inject.queue_depth_p50"] = histQuantile(r.registry.Snapshot(), both("queue_depth"), 0.5)
	m["inject.mem_pool_hit_ratio"] = ratio("campaign_vm_mem_pool_hits_total", "campaign_vm_mem_pool_misses_total")
	m["inject.clone_pool_hit_ratio"] = ratio("campaign_uarch_clone_pool_hits_total", "campaign_uarch_clone_pool_misses_total")
	m["inject.journal_flushes"] = perRound(both("journal_flushes_total")...)
	m["inject.resumed_slots"] = perRound(both("resumed_slots_total")...)
	m["inject.golden_image_loaded"] = perRound(both("golden_image_loaded_total")...)
	m["inject.golden_image_saved"] = perRound(both("golden_image_saved_total")...)
	m["pipeline.sim_cycles"] = float64(r.obsSum["pipeline_rob_occupancy"].Count) / float64(tracedRounds)
	m["pipeline.sim_retired"] = perRound("pipeline_committed_total")

	if len(jobs) == 0 {
		var err error
		if jobs, err = serviceProbe(r); err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
	}
	serviceMetrics(jobs, m)
	if err := runProbes(r, m); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}

	if err := r.writeTrace(r.opts.traceOut); err != nil {
		return err
	}
	fmt.Fprintf(r.opts.out, "trace %s\n", r.opts.traceOut)
	writeSpanTable(r.opts.out, r.tracer.snapshot())
	return nil
}

// serviceMetrics reduces job records to medians: the client's Submit call,
// the daemon's queue wait (Started - Submitted) and run time (Finished -
// Started), one status GET, and the poll lag (when the client saw the job
// end, minus Finished).
func serviceMetrics(jobs []jobSample, m map[string]float64) {
	var submit, queue, run, get, lag []float64
	for _, s := range jobs {
		j := s.job
		submit = append(submit, ms(s.submit))
		get = append(get, ms(s.statusGet))
		if j.Started != nil && j.Finished != nil {
			queue = append(queue, ms(j.Started.Sub(j.Submitted)))
			run = append(run, j.Finished.Sub(*j.Started).Seconds())
			lag = append(lag, ms(s.seen.Sub(*j.Finished)))
		}
	}
	m["service.submit_ms"] = median(submit)
	m["service.queue_wait_ms"] = median(queue)
	m["service.run_s"] = median(run)
	m["service.status_get_ms"] = median(get)
	m["service.poll_lag_ms"] = median(lag)
}

// histQuantile is the q-quantile of the named histograms combined, read as
// the upper bound of the power-of-two bucket it falls in; 0 when empty.
func histQuantile(s obs.Snapshot, names []string, q float64) float64 {
	byBound := make(map[float64]int64)
	var total int64
	for _, n := range names {
		met, ok := s.Get(n)
		if !ok {
			continue
		}
		prev := int64(0)
		for _, b := range met.Buckets { // cumulative counts
			byBound[b.Le] += b.Count - prev
			prev = b.Count
		}
		total += met.Count
	}
	if total == 0 {
		return 0
	}
	bounds := make([]float64, 0, len(byBound))
	for b := range byBound {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	cum := int64(0)
	for _, b := range bounds {
		cum += byBound[b]
		if float64(cum) >= q*float64(total) {
			return b
		}
	}
	return bounds[len(bounds)-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by the "exclusive" method of Python's
// statistics.quantiles, by which the benchmark's spread is judged, clamped
// to the smallest and largest value; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1) // 1-based
	j := int(pos)
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the Go
// runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}
