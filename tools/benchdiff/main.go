// Command benchdiff maintains and enforces the repository's committed
// benchmark baseline (BENCH_pipeline.json).
//
// It reads `go test -bench -benchmem` output on stdin in both modes:
//
//	go test -run '^$' -bench . -benchmem . | go run ./tools/benchdiff -write BENCH_pipeline.json
//	go test -run '^$' -bench . -benchmem . | go run ./tools/benchdiff -baseline BENCH_pipeline.json
//
// -write parses the benchmark results and (re)writes the baseline file.
// -baseline compares the fresh results against the committed baseline and
// exits nonzero when
//
//   - any benchmark's ns/op regresses by more than -time-tolerance
//     (default 25%), or
//   - a campaign benchmark — one reporting a trials/s custom metric —
//     loses more than -trials-tolerance of its baseline throughput
//     (default 40%: campaign iterations are long, so short CI runs see
//     few of them and more run-to-run variance than micro-benchmarks;
//     the gate still catches the multi-x regressions that matter, like
//     losing the decode cache or the early-exit path), or
//   - a hot-path benchmark — one exercising a //restorelint:hotpath
//     function — reports more allocs/op than the baseline at all. Hot-path
//     allocation counts are machine-independent, so that gate is exact.
//
// B/op drift beyond -time-tolerance is reported on every benchmark (a
// `drift` line) but is not a failure on its own: allocation volume is a
// leading indicator, and the exact hot-path allocs/op gate plus the
// throughput gates are the enforcement points.
//
// Benchmarks present in only one of the two sets are reported but do not
// fail the comparison (CI smoke runs may use a -bench filter); pass
// -require-all to make missing baseline entries fatal.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// hotpathBenches names the benchmarks whose allocs/op are pinned exactly:
// each drives a //restorelint:hotpath function in its steady state, so any
// allocation at all is a regression the static analyzer should also have
// caught.
var hotpathBenches = map[string]bool{
	"BenchmarkPipelineCycle":            true, // pipeline.Step / Cycle
	"BenchmarkPipelineCycleDecodeCache": true, // same, campaign configuration
	"BenchmarkArchSimStep":              true, // arch.Sim.Step
	"BenchmarkArchSimStepDecodeCache":   true, // same, campaign configuration
	"BenchmarkPipelineResetFrom":        true, // Pipeline.ResetFrom + mem.CopyFrom
	"BenchmarkStateHash/packed":         true, // StateSpace.Hash extent walk
}

// Result is one benchmark's measurements.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Hotpath     bool               `json:"hotpath,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the schema of BENCH_pipeline.json.
type Baseline struct {
	Note       string            `json:"note"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

const baselineNote = "Committed benchmark baseline. Regenerate with `make bench-baseline`; " +
	"CI diffs fresh runs against this file with tools/benchdiff."

func main() {
	var (
		write      = flag.String("write", "", "write a new baseline to this file")
		baseline   = flag.String("baseline", "", "compare stdin against this baseline file")
		tolerance  = flag.Float64("time-tolerance", 0.25, "allowed fractional ns/op regression")
		trialsTol  = flag.Float64("trials-tolerance", 0.40, "allowed fractional campaign trials/s drop")
		requireAll = flag.Bool("require-all", false, "fail if a baseline benchmark is missing from stdin")
	)
	flag.Parse()

	if (*write == "") == (*baseline == "") {
		fmt.Fprintln(os.Stderr, "benchdiff: exactly one of -write or -baseline is required")
		os.Exit(2)
	}

	fresh, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(fresh) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark results on stdin")
		os.Exit(2)
	}

	if *write != "" {
		if err := writeBaseline(*write, fresh); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(fresh), *write)
		return
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	bad := compare(os.Stdout, base, fresh, *tolerance, *trialsTol, *requireAll)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) against %s\n", bad, *baseline)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no regressions against %s\n", *baseline)
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkPipelineCycle-8   1000000   1050 ns/op   0 B/op   0 allocs/op   2.1 ipc
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench reads `go test -bench` output and returns results keyed by
// benchmark name with the -GOMAXPROCS suffix stripped. Repeated runs of the
// same benchmark keep the last measurement.
func parseBench(r *os.File) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name, rest := m[1], strings.Fields(m[2])
		res := Result{Hotpath: hotpathBenches[name]}
		for i := 0; i+1 < len(rest); i += 2 {
			val, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", name, rest[i])
			}
			switch unit := rest[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				res.BytesPerOp = val
			case "allocs/op":
				res.AllocsPerOp = val
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = val
			}
		}
		out[name] = res
	}
	return out, sc.Err()
}

func writeBaseline(path string, results map[string]Result) error {
	data, err := json.MarshalIndent(Baseline{Note: baselineNote, Benchmarks: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// compare prints one line per benchmark and returns the regression count.
func compare(w *os.File, base Baseline, fresh map[string]Result, tolerance, trialsTol float64, requireAll bool) int {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	bad := 0
	for _, name := range names {
		old := base.Benchmarks[name]
		cur, ok := fresh[name]
		if !ok {
			if requireAll {
				fmt.Fprintf(w, "FAIL %-55s missing from this run\n", name)
				bad++
			} else {
				fmt.Fprintf(w, "skip %-55s not run\n", name)
			}
			continue
		}
		delta := 0.0
		if old.NsPerOp > 0 {
			delta = cur.NsPerOp/old.NsPerOp - 1
		}
		oldTrials, curTrials := old.Metrics["trials/s"], cur.Metrics["trials/s"]
		trialsDrop := 0.0
		if oldTrials > 0 {
			trialsDrop = 1 - curTrials/oldTrials
		}
		switch {
		case old.Hotpath && cur.AllocsPerOp > old.AllocsPerOp:
			fmt.Fprintf(w, "FAIL %-55s allocs/op %.0f -> %.0f (hot path must stay allocation-free)\n",
				name, old.AllocsPerOp, cur.AllocsPerOp)
			bad++
		case trialsDrop > trialsTol:
			fmt.Fprintf(w, "FAIL %-55s trials/s %+.1f%% (%.1f -> %.1f, tolerance %.0f%%)\n",
				name, -trialsDrop*100, oldTrials, curTrials, trialsTol*100)
			bad++
		// Campaign benchmarks (oldTrials > 0) gate on trials/s alone:
		// their ns/op is the same measurement inverted, and double-gating
		// it at the tighter micro-benchmark tolerance would defeat the
		// wider campaign one.
		case oldTrials == 0 && delta > tolerance:
			fmt.Fprintf(w, "FAIL %-55s ns/op %+.1f%% (%.0f -> %.0f, tolerance %.0f%%)\n",
				name, delta*100, old.NsPerOp, cur.NsPerOp, tolerance*100)
			bad++
		default:
			if oldTrials > 0 {
				fmt.Fprintf(w, "ok   %-55s trials/s %+.1f%%\n", name, -trialsDrop*100)
			} else {
				fmt.Fprintf(w, "ok   %-55s ns/op %+.1f%%\n", name, delta*100)
			}
			if drift := bytesDrift(old.BytesPerOp, cur.BytesPerOp); drift > tolerance {
				fmt.Fprintf(w, "drift %-54s B/op %+.1f%% (%.0f -> %.0f, not gated)\n",
					name, drift*100, old.BytesPerOp, cur.BytesPerOp)
			}
		}
	}
	for name := range fresh {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "new  %-55s not in baseline (run `make bench-baseline` to add)\n", name)
		}
	}
	return bad
}

// bytesDrift returns the fractional B/op growth, treating a zero or shrunk
// baseline as no drift (hot-path benches pin 0 B/op through the allocs gate).
func bytesDrift(old, cur float64) float64 {
	if old <= 0 || cur <= old {
		return 0
	}
	return cur/old - 1
}
