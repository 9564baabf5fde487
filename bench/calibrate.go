package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is BENCHMARK.json. The field order is the file's key order,
// so rewriting it after calibration changes only the bounds.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []boundDoc    `json:"end_to_end"`
	PerLayer   []layerDoc    `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Bound rules. A bound is max(2 × (max − min) / median, floor) over the
// calibration runs, never above maxBound, the most a bound may allow. The
// floor is 3% for times and rates, 1% for amounts (memory). setup_s always
// gets maxBound: later changes may move work into set-up, and its spread is
// not what the bound guards.
const (
	timeFloor   = 0.03
	amountFloor = 0.01
	maxBound    = 0.25
	minCalRuns  = 5
)

func boundFloor(unit string) float64 {
	if unit == "s" || strings.HasSuffix(unit, "/s") {
		return timeFloor
	}
	return amountFloor
}

// calStats is one metric of one workload over the calibration runs.
type calStats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"iqr_over_median"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
}

func newCalStats(values []float64, unit string) calStats {
	med := median(values)
	c := calStats{
		Median: med, Q1: quantile(values, 0.25), Q3: quantile(values, 0.75),
		Min: slices.Min(values), Max: slices.Max(values), Values: values,
	}
	if med != 0 {
		c.Spread = (c.Q3 - c.Q1) / math.Abs(med)
		c.Bound = 2 * (c.Max - c.Min) / math.Abs(med)
	}
	c.Bound = math.Min(math.Max(c.Bound, boundFloor(unit)), maxBound)
	return c
}

// runCalibration runs each workload (or only wl) n times, each run a fresh
// process of this binary with seeds 1..n and BENCHMARK.json's run_seconds.
// It writes every end-to-end metric's statistics per workload to
// calibrateOut and sets each metric's bound in BENCHMARK.json to the largest
// over the workloads.
func runCalibration(n int, wl string, stdout, stderr io.Writer) error {
	if n < minCalRuns {
		return fmt.Errorf("--calibrate takes at least %d runs, got %d", minCalRuns, n)
	}
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		return err
	}
	names := workloadNames()
	if wl != "" {
		if _, ok := workloads[wl]; !ok {
			return fmt.Errorf("unknown workload %q", wl)
		}
		names = []string{wl}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := make(map[string]map[string]calStats)
	for _, name := range names {
		values := make(map[string][]float64)
		for seed := 1; seed <= n; seed++ {
			rep, err := runChild(self, stderr, "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", name, seed, rep.Failed, rep.Attempted)
			}
			for _, m := range endToEnd {
				values[m.name] = append(values[m.name], rep.Metrics[m.name].Value)
			}
			fmt.Fprintf(stderr, "calibrate %s seed %d done\n", name, seed)
		}
		out[name] = make(map[string]calStats)
		for _, m := range endToEnd {
			out[name][m.name] = newCalStats(values[m.name], m.unit)
		}
	}

	for i, e := range bf.EndToEnd {
		if e.Name == "setup_s" {
			bf.EndToEnd[i].Bound = maxBound
			continue
		}
		b := 0.0
		for _, w := range out {
			if s, ok := w[e.Name]; ok {
				b = math.Max(b, s.Bound)
			}
		}
		if b > 0 {
			bf.EndToEnd[i].Bound = math.Round(b*1000) / 1000
		}
	}
	if err := writeJSONFile(benchmarkJSON, bf); err != nil {
		return err
	}
	if err := writeJSONFile(calibrateOut, out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-16s %-20s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		for _, m := range endToEnd {
			s := out[name][m.name]
			fmt.Fprintf(stdout, "%-16s %-20s %12.4f %12.4f %12.4f %8.4f %8.4f\n",
				name, m.name, s.Q1, s.Median, s.Q3, s.Spread, s.Bound)
		}
	}
	return nil
}

// runChild runs one benchmark process and parses its result line, the last
// line of its standard output.
func runChild(bin string, stderr io.Writer, args ...string) (*report, error) {
	cmd := exec.Command(bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &rep, nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
