// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus micro-benchmarks of the substrates they stand on. Each
// figure benchmark runs a (reduced) campaign per iteration and reports the
// headline quantity it regenerates as a custom metric, so
// `go test -bench=. -benchmem` doubles as a smoke reproduction of the whole
// evaluation. Paper-scale runs use cmd/restore-sim.
package main

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/experiments"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/protect"
	"repro/internal/restore"
	"repro/internal/workload"
)

// benchOpts keeps per-iteration campaigns small enough to benchmark.
func benchOpts() experiments.Options {
	return experiments.Options{
		Seed:        42,
		Scale:       0.5,
		TrialFactor: 0.05,
		Benchmarks:  []workload.Benchmark{workload.MCF, workload.Gzip},
	}
}

// BenchmarkFig2 regenerates the software-level injection campaign of
// Figure 2 and reports the masked fraction (paper: ~0.59).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(benchOpts(), false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Table.Cell("masked", "25"), "masked-frac")
		b.ReportMetric(res.Table.Cell("exception", "100"), "exc@100-frac")
	}
}

// BenchmarkFig2Low32 regenerates the Section 3.1 low-32-bit variant.
func BenchmarkFig2Low32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(benchOpts(), true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Table.Cell("exception", "100"), "exc@100-frac")
	}
}

// BenchmarkFig4 regenerates the microarchitectural campaign with perfect
// cfv identification and reports the baseline failure rate (paper: ~0.07)
// and the uncovered rate at a 100-instruction interval (paper: ~half the
// failures covered).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp, err := experiments.Campaign(benchOpts(), experiments.CampaignConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.RawFailureRate(), "fail-frac")
		b.ReportMetric(exp.FailureRateAt(100, inject.DetectorPerfect), "fail@100-frac")
	}
}

// BenchmarkFig4Latches regenerates the Section 5.1.2 latch-only campaign
// (paper: symptoms cover ~75% of latch-origin failures at 100 insts).
func BenchmarkFig4Latches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp, err := experiments.Campaign(benchOpts(), experiments.CampaignConfig{LatchesOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.RawFailureRate(), "fail-frac")
		b.ReportMetric(exp.FailureRateAt(100, inject.DetectorPerfect), "fail@100-frac")
	}
}

// BenchmarkFig5 regenerates the JRS-confidence classification of Figure 5
// and the Section 5.2.1 oracle-confidence ablation over the same campaign.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp, err := experiments.Campaign(benchOpts(), experiments.CampaignConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.FailureRateAt(100, inject.DetectorJRS), "fail@100-jrs")
		b.ReportMetric(exp.FailureRateAt(100, inject.DetectorOracleConfidence), "fail@100-oracle")
	}
}

// BenchmarkFig6 regenerates the hardened-pipeline campaign of Figure 6
// (paper: ~1% failures remain under lhf+ReStore).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp, err := experiments.Campaign(benchOpts(), experiments.CampaignConfig{
			Policy: protect.LowHangingFruit(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.RawFailureRate(), "lhf-fail-frac")
		b.ReportMetric(exp.FailureRateAt(100, inject.DetectorJRS), "combined-fail-frac")
	}
}

// BenchmarkFig7 regenerates the false-positive performance model (paper:
// ~6% slowdown at a 100-instruction interval; delayed wins past ~500).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(perf.Speedup(res.Mean, 100, restore.PolicyImmediate), "speedup@100")
		b.ReportMetric(perf.Speedup(res.Mean, 1000, restore.PolicyDelayed), "delayed@1000")
	}
}

// BenchmarkFig8 regenerates the FIT scaling model (paper: 2x / 7x MTBF).
func BenchmarkFig8(b *testing.B) {
	opts := benchOpts()
	plain, err := experiments.Campaign(opts, experiments.CampaignConfig{})
	if err != nil {
		b.Fatal(err)
	}
	hardened, err := experiments.Campaign(opts, experiments.CampaignConfig{Policy: protect.LowHangingFruit()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(plain, hardened, 100)
		b.ReportMetric(res.Improvements["ReStore"], "restore-mtbf-x")
		b.ReportMetric(res.Improvements["lhf+ReStore"], "combined-mtbf-x")
	}
}

// ---------------------------------------------------------------------------
// Campaign engine: serial vs parallel across the full seven-benchmark suite.
// Each sub-benchmark runs the identical campaign configuration with Workers
// 0 and 4; the speedup is the ratio of their ns/op (wall clock — it tracks
// available CPUs, so expect ~1x on a single-core machine and ~N/x on N
// cores). Results are bit-identical either way, which
// TestUArchParallelMatchesSerial pins. Every sub-benchmark also reports
// trials/s, the number the committed BENCH_pipeline.json baseline and the
// CI bench gate track.

func uarchEngineBench(bench workload.Benchmark) inject.UArchConfig {
	return inject.UArchConfig{
		Bench: bench, Seed: 7, Scale: 0.5,
		Points: 5, TrialsPerPoint: 30,
		WarmupCycles: 5_000, SpreadCycles: 10_000, WindowCycles: 5_000,
	}
}

func vmEngineBench(bench workload.Benchmark) inject.VMConfig {
	return inject.VMConfig{
		Bench: bench, Seed: 7, Scale: 0.5,
		Trials: 160, Points: 20, Window: 20_000, Spread: 40_000,
	}
}

// BenchmarkUArchCampaign sweeps the microarchitectural campaign engine over
// every benchmark, serial and with 4 workers.
func BenchmarkUArchCampaign(b *testing.B) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 0}, {"parallel4", 4}} {
		b.Run(mode.name, func(b *testing.B) {
			for _, bench := range workload.Benchmarks() {
				b.Run(string(bench), func(b *testing.B) {
					cfg := uarchEngineBench(bench)
					cfg.Workers = mode.workers
					trials := cfg.Points * cfg.TrialsPerPoint
					for i := 0; i < b.N; i++ {
						if _, err := inject.RunUArch(cfg); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(trials*b.N)/b.Elapsed().Seconds(), "trials/s")
				})
			}
		})
	}
}

// BenchmarkVMCampaign sweeps the software-level campaign engine over every
// benchmark, serial and with 4 workers.
func BenchmarkVMCampaign(b *testing.B) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 0}, {"parallel4", 4}} {
		b.Run(mode.name, func(b *testing.B) {
			for _, bench := range workload.Benchmarks() {
				b.Run(string(bench), func(b *testing.B) {
					cfg := vmEngineBench(bench)
					cfg.Workers = mode.workers
					for i := 0; i < b.N; i++ {
						if _, err := inject.RunVM(cfg); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(cfg.Trials*b.N)/b.Elapsed().Seconds(), "trials/s")
				})
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkArchSimStep measures the architectural simulator's throughput.
func BenchmarkArchSimStep(b *testing.B) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		b.Fatal(err)
	}
	sim := arch.New(m, prog.Entry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := sim.Step(); ev.Exception != arch.ExcNone {
			b.Fatal("golden exception")
		}
	}
}

// BenchmarkPipelineCycle measures detailed-pipeline cycle throughput.
func BenchmarkPipelineCycle(b *testing.B) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Cycle()
		if p.Status() != pipeline.StatusRunning {
			b.Fatal("pipeline stopped")
		}
	}
	b.ReportMetric(p.Stats().IPC(), "ipc")
}

// BenchmarkStateHash measures the state-digest cost that dominates masked
// detection in campaigns: the packed extent walk.
func BenchmarkStateHash(b *testing.B) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		b.Fatal(err)
	}
	p.RunCycles(2000)
	b.Run("packed", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= p.State().Hash()
		}
		_ = sink
	})
}

// BenchmarkPipelineCycleDecodeCache measures cycle throughput in the
// campaign configuration: a shared decode cache replaces isa.Decode on
// every fetched word.
func BenchmarkPipelineCycleDecodeCache(b *testing.B) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		b.Fatal(err)
	}
	p.SetDecodeCache(isa.NewDecodeCache(prog.CodeBase, prog.Code))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Cycle()
		if p.Status() != pipeline.StatusRunning {
			b.Fatal("pipeline stopped")
		}
	}
	b.ReportMetric(p.Stats().IPC(), "ipc")
}

// BenchmarkArchSimStepDecodeCache measures the architectural simulator in
// the VM-campaign configuration (shared decode cache attached).
func BenchmarkArchSimStepDecodeCache(b *testing.B) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		b.Fatal(err)
	}
	sim := arch.New(m, prog.Entry)
	sim.DCache = isa.NewDecodeCache(prog.CodeBase, prog.Code)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := sim.Step(); ev.Exception != arch.ExcNone {
			b.Fatal("golden exception")
		}
	}
}

// BenchmarkPipelineClone measures the per-trial forking cost of campaigns.
func BenchmarkPipelineClone(b *testing.B) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		b.Fatal(err)
	}
	p.RunCycles(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := p.Clone()
		_ = c
	}
}

// BenchmarkPipelineResetFrom measures the clone pool's recycle path: reset
// an existing fork back to the master instead of allocating a fresh Clone.
func BenchmarkPipelineResetFrom(b *testing.B) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		b.Fatal(err)
	}
	p.RunCycles(5000)
	c := p.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ResetFrom(p)
	}
}

// BenchmarkGoldenImageRoundTrip measures the warm-start IO path: encode the
// warmed pipeline into a golden image and restore it into a second pipeline
// (write + load per iteration, serial workers). The stored-bytes metric pins
// the image footprint the compression buys.
func BenchmarkGoldenImageRoundTrip(b *testing.B) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 1})
	m, err := prog.NewMemory()
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		b.Fatal(err)
	}
	p.RunCycles(10_000)
	m2, err := prog.NewMemory()
	if err != nil {
		b.Fatal(err)
	}
	p2, err := pipeline.New(pipeline.DefaultConfig(), m2, prog.Entry)
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/bench.golden"
	meta := []byte("bench-golden")
	var stored int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := p.WriteGoldenImage(path, meta, 1)
		if err != nil {
			b.Fatal(err)
		}
		stored = st.StoredBytes
		if err := p2.LoadGoldenImage(path, meta, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stored), "stored-B")
}

// BenchmarkRestoreOverhead measures the fault-free ReStore processor
// against the bare pipeline — the simulated counterpart of Figure 7.
func BenchmarkRestoreOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		speedup, err := perf.MeasureSlowdown(workload.Gzip, 42, 20_000,
			pipeline.DefaultConfig(), restore.Config{Interval: 100})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(speedup, "speedup")
	}
}

// BenchmarkAssemble measures the textual assembler.
func BenchmarkAssemble(b *testing.B) {
	src := `
		.data buf 4096
		.base r10 buf
		.imm  r1 64
	loop:
		ldq  r2, 0(r10)
		addq r3, r2, r3
		stq  r3, 8(r10)
		subq r1, #1, r1
		bgt  r1, loop
		halt
	`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGenerate measures synthetic benchmark generation.
func BenchmarkWorkloadGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(workload.MCF, workload.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
