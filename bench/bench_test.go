package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// miniature runs one workload in-process on one benchmark at a tiny trial
// factor, for a single round (two when traced).
func miniature(t *testing.T, wl string, trace bool) (*report, string) {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	o := options{
		workload:    wl,
		seed:        42,
		trace:       trace,
		dir:         dir,
		out:         &out,
		trialFactor: 0.02,
		benches:     []workload.Benchmark{workload.Gzip},
	}
	if trace {
		o.traceOut = filepath.Join(dir, "trace.json")
	}
	rep, err := run(o)
	if err != nil {
		t.Fatalf("%s trace=%t: %v\n%s", wl, trace, err, out.String())
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s trace=%t: %d of %d operations failed\n%s", wl, trace, rep.Failed, rep.Attempted, out.String())
	}
	return rep, out.String()
}

// TestMiniatureWorkloads runs every workload untraced and traced. Each run
// must print every metric BENCHMARK.json names, with its unit, and the two
// runs must produce the same output digests: tracing changes no result.
func TestMiniatureWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	units := func(docs []metricDef) map[string]string {
		m := make(map[string]string)
		for _, d := range docs {
			m[d.name] = d.unit
		}
		return m
	}
	var e2e, layer []metricDef
	for _, e := range bf.EndToEnd {
		e2e = append(e2e, metricDef{e.Name, e.Unit, e.Better})
	}
	for _, l := range bf.PerLayer {
		layer = append(layer, metricDef{l.Name, l.Unit, l.Better})
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			plain, plainOut := miniature(t, w.Name, false)
			traced, tracedOut := miniature(t, w.Name, true)
			checkMetrics(t, plain, plainOut, units(e2e))
			checkMetrics(t, traced, tracedOut, units(layer))
			if len(plain.digests) == 0 {
				t.Fatal("the run recorded no output digests")
			}
			if fmt.Sprint(plain.digests) != fmt.Sprint(traced.digests) {
				t.Errorf("digests differ between the untraced and the traced run:\n%v\n%v", plain.digests, traced.digests)
			}
			if !strings.Contains(tracedOut, "self_ms") {
				t.Errorf("traced run printed no per-layer span table:\n%s", tracedOut)
			}
		})
	}
}

func checkMetrics(t *testing.T, rep *report, out string, want map[string]string) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
	}
	for name, unit := range want {
		v, ok := rep.Metrics[name]
		if !ok || v.Unit != unit {
			t.Errorf("metric %s: got %+v (present %t), want unit %s", name, v, ok, unit)
			continue
		}
		line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(name) + ` +\S+ ` + regexp.QuoteMeta(unit) + `$`)
		if !line.MatchString(out) {
			t.Errorf("metric %s is not printed with its unit %s", name, unit)
		}
	}
}

// TestBenchmarkFileMatchesMetrics holds BENCHMARK.json and the metric tables
// in step, and checks the limits the file must meet.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(kind, n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %v", len(bf.Workloads), workloadNames())
	}
	for _, w := range bf.Workloads {
		check("workload", w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, e := range bf.EndToEnd {
		check("metric", e.Name)
		if d := endToEnd[i]; d != (metricDef{e.Name, e.Unit, e.Better}) {
			t.Errorf("end_to_end[%d] = %s %s %s, the benchmark reports %+v", i, e.Name, e.Unit, e.Better, d)
		}
		if e.Bound <= 0 || e.Bound > maxBound {
			t.Errorf("%s: bound %g outside (0, %g]", e.Name, e.Bound, maxBound)
		}
		largest = max(largest, e.Bound)
	}
	for _, e := range bf.EndToEnd {
		if e.Name == "setup_s" && e.Bound != largest {
			t.Errorf("setup_s bound %g is not the largest (%g)", e.Bound, largest)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i, l := range bf.PerLayer {
		check("metric", l.Name)
		if d := perLayer[i]; d != (metricDef{l.Name, l.Unit, l.Better}) {
			t.Errorf("per_layer[%d] = %s %s %s, the benchmark reports %+v", i, l.Name, l.Unit, l.Better, d)
		}
	}
}

// TestVMWorkersMatchSerial checks the determinism contract from outside:
// vm-par2's two-worker campaign gives the same trials as a serial one.
func TestVMWorkersMatchSerial(t *testing.T) {
	digest := func(workers int) string {
		trials, err := vmCampaign(experiments.Options{
			Seed: 7, TrialFactor: 0.02, Workers: workers,
			Benchmarks: []workload.Benchmark{workload.MCF},
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := digestJSON(trials)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if serial, par := digest(0), digest(2); serial != par {
		t.Errorf("Workers 2 digest %s, Workers 0 digest %s", par, serial)
	}
}

// TestSelfTimeSubtractsUnionOfChildren: two shards (or two workers) run at
// once, so their spans overlap. A parent's self time subtracts the union of
// its children's intervals; subtracting each child would go negative.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "shard0", Start: 0, End: 80},
		{ID: 3, Parent: 1, Name: "shard1", Start: 10, End: 90},
		{ID: 4, Parent: 3, Name: "merge", Start: 85, End: 95}, // runs past its parent
		{ID: 5, Parent: 1, Name: "tail", Start: 95, End: 97},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 90 - 2, 2: 80, 3: 80 - 5, 4: 10, 5: 2}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if plain := int64(100 - 80 - 80 - 2); plain >= 0 {
		t.Fatalf("the case does not overlap: plain subtraction gives %d", plain)
	}
}

// TestOpLatenciesTakeMedianPerOperation: one round slowed by host load moves
// no operation's median, so the latency quantiles stay where the other
// rounds put them; pooling the samples would move the 75th percentile.
func TestOpLatenciesTakeMedianPerOperation(t *testing.T) {
	base := map[string]float64{"a": 1, "b": 2, "c": 3, "d": 4}
	var rounds []*round
	for i := 0; i < 3; i++ {
		rd := &round{timed: time.Second, wall: time.Second, lat: make(map[string]float64)}
		for op, s := range base {
			rd.lat[op] = s
			if i == 2 {
				rd.lat[op] = 2 * s
			}
		}
		rounds = append(rounds, rd)
	}
	m := make(map[string]float64)
	endToEndMetrics(rounds, 1, 1, m)
	if m["op_latency_p50_s"] != 2.5 || m["op_latency_p75_s"] != 3.75 {
		t.Errorf("p50 %g p75 %g, want 2.5 3.75", m["op_latency_p50_s"], m["op_latency_p75_s"])
	}
	var pooled []float64
	for _, rd := range rounds {
		for _, s := range rd.lat {
			pooled = append(pooled, s)
		}
	}
	if p75 := quantile(pooled, 0.75); p75 <= 3.75 {
		t.Fatalf("the case does not separate the two: pooled p75 %g", p75)
	}
}

// TestQuantileMatchesPython pins quantile to Python's
// statistics.quantiles(data, n=4), which judges the benchmark's spread.
func TestQuantileMatchesPython(t *testing.T) {
	for _, c := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{2, 4, 4, 5, 7, 9}, 3.5, 4.5, 7.5},
	} {
		q1, m, q3 := quantile(c.data, 0.25), median(c.data), quantile(c.data, 0.75)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestDigestsFileParses checks the committed digests: every workload is
// pinned for seeds 42 and 7.
func TestDigestsFileParses(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f digestFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, seed := range []string{"42", "7"} {
			if len(f[w][seed]) == 0 {
				t.Errorf("no committed digests for %s seed %s", w, seed)
			}
		}
	}
}
