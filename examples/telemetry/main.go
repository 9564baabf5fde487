// Telemetry: run a miniature fault-injection campaign and a short ReStore
// processor run with the observability layer (internal/obs) attached, then
// read the telemetry back out — campaign throughput, per-outcome counts,
// clone-pool recycling, pipeline occupancy histograms, a per-rollback
// symptom trace, and a snapshot diff isolating the ReStore phase.
//
// The instrumentation is provably inert: this program runs the same campaign
// with and without the sink and checks the trials are identical before
// printing anything (the same contract TestCampaignMetricsInert and the CI
// metrics-inertness job enforce).
//
// Run with: go run ./examples/telemetry
package main

import (
	"fmt"
	"log"
	"os"
	"reflect"
	"runtime"

	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/restore"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func campaign(sink obs.Sink) (*inject.UArchResult, error) {
	return inject.RunUArch(inject.UArchConfig{
		Bench:          workload.MCF,
		Seed:           2026,
		Scale:          0.5,
		Points:         8,
		TrialsPerPoint: 30,
		WarmupCycles:   5_000,
		SpreadCycles:   10_000,
		WindowCycles:   5_000,
		// Execution options (workers, telemetry sink, durability) never
		// change the trials, which is what the comparison below proves.
		Exec: inject.Exec{Workers: runtime.NumCPU(), Obs: sink},
	})
}

func run() error {
	reg := obs.NewRegistry()

	// 1. The same campaign twice: bare, then instrumented. The trials must
	// match bit for bit — telemetry is write-only and never feeds back.
	bare, err := campaign(nil)
	if err != nil {
		return err
	}
	instrumented, err := campaign(reg)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(bare.Trials, instrumented.Trials) {
		return fmt.Errorf("telemetry changed campaign results — inertness contract broken")
	}
	fmt.Printf("campaign on %s: %d trials, metrics on == metrics off ✓\n\n",
		workload.MCF, len(instrumented.Trials))

	// 2. What the campaign recorded.
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	fmt.Println("campaign telemetry:")
	fmt.Printf("  trials/sec        %.0f\n", reg.Gauge("campaign_uarch_trials_per_second").Value())
	fmt.Printf("  worker busy       %v across %d trials\n",
		reg.Timer("campaign_uarch_worker_busy").Total().Round(1000),
		reg.Timer("campaign_uarch_worker_busy").Count())
	hits, misses := counter("campaign_uarch_clone_pool_hits_total"), counter("campaign_uarch_clone_pool_misses_total")
	fmt.Printf("  clone pool        %d hits / %d misses (%.0f%% recycled)\n",
		hits, misses, 100*float64(hits)/float64(hits+misses))
	for _, outcome := range []string{"masked", "exception", "deadlock", "cfv", "sdc", "other"} {
		if n := counter("campaign_uarch_outcome_" + outcome + "_total"); n > 0 {
			fmt.Printf("  outcome %-9s %d\n", outcome, n)
		}
	}
	if m, ok := reg.Snapshot().Get("pipeline_rob_occupancy"); ok && m.Count > 0 {
		fmt.Printf("  ROB occupancy     mean %.1f over %d cycles sampled on the master\n",
			m.Value/float64(m.Count), m.Count)
	}

	// 3. A ReStore run with symptom tracing, isolated via snapshot diff.
	before := reg.Snapshot()
	trace := obs.NewTrace(64)
	proc, err := restoreProcessor(reg, trace)
	if err != nil {
		return err
	}
	if _, err := proc.Run(60_000, 60_000*400); err != nil {
		return err
	}
	diff := reg.Snapshot().Diff(before)

	fmt.Println("\nReStore phase (snapshot diff against the campaign):")
	for _, name := range []string{
		"restore_rollbacks_total",
		"restore_symptom_branch_total",
		"restore_symptom_exception_total",
		"restore_symptom_deadlock_total",
	} {
		if m, ok := diff.Get(name); ok && m.Value > 0 {
			fmt.Printf("  %-30s %.0f\n", name, m.Value)
		}
	}
	if m, ok := diff.Get("restore_rollback_depth_insts"); ok && m.Count > 0 {
		fmt.Printf("  %-30s mean %.1f insts\n", "rollback depth", m.Value/float64(m.Count))
	}
	if evs := trace.Events(); len(evs) > 0 {
		fmt.Printf("\nfirst symptom events (of %d retained, %d evicted):\n", len(evs), trace.Dropped())
		for i, ev := range evs {
			if i == 5 {
				break
			}
			fmt.Print("  ")
			fmt.Print(ev.Name)
			for _, f := range ev.Fields {
				fmt.Printf(" %s=%d", f.Key, f.Value)
			}
			fmt.Println()
		}
	}

	// 4. The full registry in Prometheus text format, as -metrics would
	// write it.
	fmt.Println("\nfull registry (Prometheus text format):")
	return reg.Snapshot().WritePrometheus(os.Stdout)
}

func restoreProcessor(sink obs.Sink, trace *obs.Trace) (*restore.Processor, error) {
	// MCF's pointer-chasing control flow produces high-confidence branch
	// mispredictions, so a fault-free run still triggers (false-positive)
	// symptom rollbacks — exactly what the trace is for.
	prog, err := workload.Generate(workload.MCF, workload.Config{Seed: 7, Scale: 0.5})
	if err != nil {
		return nil, err
	}
	m, err := prog.NewMemory()
	if err != nil {
		return nil, err
	}
	pipe, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		return nil, err
	}
	return restore.New(pipe, restore.Config{
		Interval: 100,
		Obs:      sink,
		Trace:    trace,
	}), nil
}
