// Command bench is the end-to-end benchmark of the fault-injection campaigns:
// four workloads that drive the simulator through its public packages
// (experiments, inject, campaignio, ckptio, pipeline, arch, mem, workload and
// the service daemon and client), check every output against committed
// digests, and print every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {"wall_s": {"value": 17.2, "unit": "s"}, ...}}
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload uarch-paper --seed 42 --seconds 15 --trace 0
//	bash bench/run.sh --workload service-jobs --seed 7 --seconds 15 --trace 1
//	bash bench/run.sh --calibrate 10
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
// the same workload with spans and obs counters recorded, runs the layer
// probes afterwards, writes the spans and counters as JSON to
// .bench_build/traces/<workload>-<seed>.json and reports the per-layer
// metrics. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Paths, relative to the repository root the benchmark runs from.
const (
	buildDir      = ".bench_build"
	digestsPath   = "bench/testdata/digests.json"
	benchmarkJSON = "BENCHMARK.json"
	calibrateOut  = "bench/calibration.json"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 42, "seed for the generated programs and injection picks")
	seconds := fs.Float64("seconds", 10, "how long to keep starting rounds (BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 records spans and obs counters and reports the per-layer metrics")
	calibrate := fs.Int("calibrate", 0, "run every workload (or only --workload) N >= 5 times with seeds 1..N, write "+calibrateOut+" and set the bounds in "+benchmarkJSON)
	writeDigests := fs.Bool("write-digests", false, "record this run's digests in "+digestsPath+" as the committed ones for the seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calibrate != 0 {
		if err := runCalibration(*calibrate, *wl, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[*wl]; !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *wl, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace takes 0 or 1")
		return 2
	}
	// The benchmark runs from the repository root; refuse early anywhere
	// else rather than failing halfway through a run.
	if _, err := os.Stat(digestsPath); err != nil {
		fmt.Fprintln(stderr, "bench: run from the repository root:", err)
		return 1
	}
	dir, err := os.MkdirTemp(mkdirAll(buildDir), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	o := options{
		workload:    *wl,
		seed:        *seed,
		seconds:     *seconds,
		trace:       *trace == 1,
		dir:         dir,
		digestsPath: digestsPath,
		out:         stdout,
	}
	if o.trace {
		o.traceOut = filepath.Join(mkdirAll(filepath.Join(buildDir, "traces")),
			*wl+"-"+strconv.FormatInt(*seed, 10)+".json")
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *writeDigests {
		if !rep.Correct {
			fmt.Fprintln(stderr, "bench: not recording digests of an incorrect run")
			return 1
		}
		if err := recordDigests(digestsPath, *wl, *seed, rep.digests); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// mkdirAll creates dir (errors surface at the first use of it) and returns it.
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}
