package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/arch"
	"repro/internal/campaignio"
	"repro/internal/ckptio"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/workload"
)

// Probe sizes. The pipeline probes replay the geometry of a paper-scale
// microarchitectural campaign (10k warm-up cycles, a 40k-cycle spread, a
// 10k-cycle window recorded with 25% slack); the arch probes walk the
// software-level campaign's warm-up plus spread plus window.
const (
	probeWarmupCycles = 10_000
	probeSpreadCycles = 40_000
	probeWindowCycles = 10_000
	probeHashes       = 2_000
	probeClones       = 10
	probeResets       = 100
	probeVMInsts      = 5_000 + 200_000 + 100_000
	probeMemOps       = 10
	probeRestoreInsts = 10_000
	probeJournalBatch = 64
)

// acc accumulates the time of n calls.
type acc struct {
	d time.Duration
	n int
}

func (a *acc) time(fn func()) {
	start := time.Now()
	fn()
	a.d += time.Since(start)
	a.n++
}

func (a acc) per(unit time.Duration) float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.d) / float64(a.n) / float64(unit)
}

// runProbes times single layer calls on every benchmark of the run, at the
// run's seed, after the measured region.
func runProbes(r *runner, m map[string]float64) error {
	dir := filepath.Join(r.opts.dir, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var gen, warm, write, load, readall, record, clone, reset, memClone, copyFrom, restore acc
	var cycleNs, hashNs, stepNs float64
	var cycles, hashes, steps, simInsts uint64
	var plain, stored, imageBytes, cloneBytes int64
	meta := []byte("bench-probe")
	for i, b := range r.benches {
		var prog *workload.Program
		var err error
		gen.time(func() { prog, err = workload.Generate(b, workload.Config{Seed: r.opts.seed}) })
		if err != nil {
			return err
		}
		dcache := isa.NewDecodeCache(prog.CodeBase, prog.Code)
		p, err := newPipeline(prog, dcache)
		if err != nil {
			return err
		}
		warm.time(func() { p.RunCycles(probeWarmupCycles) })

		path := filepath.Join(dir, strconv.Itoa(i)+".golden")
		var st ckptio.Stats
		write.time(func() { st, err = p.WriteGoldenImage(path, meta, 1) })
		if err != nil {
			return err
		}
		plain += st.PlainBytes
		stored += st.StoredBytes
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		imageBytes += info.Size()
		p2, err := newPipeline(prog, dcache)
		if err != nil {
			return err
		}
		load.time(func() { err = p2.LoadGoldenImage(path, meta, 1) })
		if err != nil {
			return err
		}
		readall.time(func() { err = readImage(path) })
		if err != nil {
			return err
		}

		start := time.Now()
		cycles += p.RunCycles(probeSpreadCycles)
		cycleNs += float64(time.Since(start).Nanoseconds())
		if p.Status() != pipeline.StatusRunning {
			return fmt.Errorf("%s: pipeline stopped in the spread: %v", b, p.Status())
		}
		var sink uint64
		start = time.Now()
		for j := 0; j < probeHashes; j++ {
			sink ^= p.State().Hash()
		}
		hashNs += float64(time.Since(start).Nanoseconds())
		hashes += probeHashes
		record.time(func() { sink ^= recordGolden(p, probeWindowCycles) })

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		var f *pipeline.Pipeline
		for j := 0; j < probeClones; j++ {
			clone.time(func() { f = p.Clone() })
		}
		runtime.ReadMemStats(&ms)
		cloneBytes += int64(ms.TotalAlloc - alloc0)
		for j := 0; j < probeResets; j++ {
			reset.time(func() { f.ResetFrom(p) })
		}
		_ = sink

		// The software-level campaign's golden walk, memory journal on.
		mm, err := prog.NewMemory()
		if err != nil {
			return err
		}
		mm.EnableJournal()
		sim := arch.New(mm, prog.Entry)
		sim.DCache = dcache
		start = time.Now()
		for sim.InstRet < probeVMInsts && !sim.Stopped() {
			sim.Step()
		}
		stepNs += float64(time.Since(start).Nanoseconds())
		steps += sim.InstRet
		simInsts += sim.InstRet
		mm.DiscardTo(0)
		var fm *mem.Memory
		for j := 0; j < probeMemOps; j++ {
			memClone.time(func() { fm = mm.Clone() })
			copyFrom.time(func() { fm.CopyFrom(mm) })
		}
		for j := 0; j < probeMemOps; j++ {
			regs, mark := sim.Snapshot(), mm.Snapshot()
			for k := 0; k < probeRestoreInsts && !sim.Stopped(); k++ {
				sim.Step()
			}
			restore.time(func() { mm.RestoreTo(mark) })
			sim.Restore(regs)
		}
	}
	nb := float64(len(r.benches))
	m["workload.generate_ms"] = gen.per(time.Millisecond)
	m["pipeline.warmup_ms"] = warm.per(time.Millisecond)
	m["pipeline.cycle_ns"] = cycleNs / float64(max(cycles, 1))
	m["pipeline.hash_ns"] = hashNs / float64(max(hashes, 1))
	m["pipeline.clone_us"] = clone.per(time.Microsecond)
	m["pipeline.clone_kb"] = float64(cloneBytes) / 1024 / float64(max(clone.n, 1))
	m["pipeline.resetfrom_us"] = reset.per(time.Microsecond)
	m["pipeline.golden_record_ms"] = record.per(time.Millisecond)
	m["pipeline.golden_write_ms"] = write.per(time.Millisecond)
	m["pipeline.golden_load_ms"] = load.per(time.Millisecond)
	m["pipeline.golden_image_kb"] = float64(imageBytes) / 1024 / nb
	m["ckptio.readall_ms"] = readall.per(time.Millisecond)
	m["ckptio.stored_ratio"] = float64(stored) / float64(max(plain, 1))
	m["arch.step_ns"] = stepNs / float64(max(steps, 1))
	m["arch.sim_insts"] = float64(simInsts)
	m["mem.clone_us"] = memClone.per(time.Microsecond)
	m["mem.copyfrom_us"] = copyFrom.per(time.Microsecond)
	m["mem.restore_us"] = restore.per(time.Microsecond)

	if err := journalProbe(r, filepath.Join(dir, "journal"), m); err != nil {
		return err
	}
	return resumeProbe(r, filepath.Join(dir, "resume"), m)
}

func newPipeline(prog *workload.Program, dcache *isa.DecodeCache) (*pipeline.Pipeline, error) {
	mm, err := prog.NewMemory()
	if err != nil {
		return nil, err
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), mm, prog.Entry)
	if err != nil {
		return nil, err
	}
	p.SetDecodeCache(dcache)
	return p, nil
}

func readImage(path string) error {
	f, err := ckptio.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.ReadAll(1)
	return err
}

// recordGolden replays the public calls the campaign engine makes to record
// a golden continuation: a clone of the master, then the window plus 25%
// slack of cycles, hashing the state before each.
func recordGolden(master *pipeline.Pipeline, window uint64) uint64 {
	g := master.Clone()
	total := window + window/4
	var sink uint64
	for c := uint64(0); c <= total; c++ {
		sink ^= g.State().Hash()
		if c < total {
			g.Cycle()
		}
	}
	return sink
}

// journalProbe replays one finished campaign's journal records through a
// fresh journal writer with the campaign batch size, then scans the
// journal, and merges it as two shards.
func journalProbe(r *runner, dir string, m map[string]float64) error {
	if len(r.payloads) == 0 {
		return fmt.Errorf("no journal payloads recorded in the measured region")
	}
	n := len(r.payloads)
	man := campaignio.Manifest{
		Version: campaignio.FormatVersion, Kind: "probe", ConfigHash: "probe",
		Seed: r.opts.seed, Bench: "probe", Slots: n, ShardCount: 1,
	}
	single := filepath.Join(dir, "single")
	if err := campaignio.WriteManifest(single, man); err != nil {
		return err
	}
	w, err := campaignio.OpenWriter(single, 0, probeJournalBatch)
	if err != nil {
		return err
	}
	// Appends that complete a batch write and fsync it; they are the
	// flushes, the others only buffer.
	var appendAcc, flushAcc acc
	for slot, p := range r.payloads {
		before := w.Flushes()
		start := time.Now()
		err := w.Append(slot, p)
		d := time.Since(start)
		if err != nil {
			w.Close()
			return err
		}
		a := &appendAcc
		if w.Flushes() != before {
			a = &flushAcc
		}
		a.d += d
		a.n++
	}
	if w.Flushes() == 0 || n%probeJournalBatch != 0 {
		flushAcc.time(func() { err = w.Flush() })
		if err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	info, err := os.Stat(filepath.Join(single, campaignio.JournalName))
	if err != nil {
		return err
	}
	var scan acc
	scan.time(func() { _, err = campaignio.ScanJournal(single, n) })
	if err != nil {
		return err
	}

	shards := make([]string, 2)
	for k := range shards {
		shards[k] = filepath.Join(dir, "shard"+strconv.Itoa(k))
		sm := man
		sm.ShardIndex, sm.ShardCount = k, 2
		if err := campaignio.WriteManifest(shards[k], sm); err != nil {
			return err
		}
		sw, err := campaignio.OpenWriter(shards[k], 0, probeJournalBatch)
		if err != nil {
			return err
		}
		for slot := k; slot < n; slot += 2 {
			if err := sw.Append(slot, r.payloads[slot]); err != nil {
				sw.Close()
				return err
			}
		}
		if err := sw.Close(); err != nil {
			return err
		}
	}
	var merge acc
	merge.time(func() {
		var mm campaignio.Manifest
		var payloads [][]byte
		if mm, payloads, err = campaignio.MergeScan(shards); err == nil {
			err = campaignio.WriteMerged(filepath.Join(dir, "merged"), mm, payloads)
		}
	})
	if err != nil {
		return err
	}
	m["campaignio.append_us"] = appendAcc.per(time.Microsecond)
	m["campaignio.flush_ms"] = flushAcc.per(time.Millisecond)
	m["campaignio.scan_ms"] = scan.per(time.Millisecond)
	m["campaignio.merge_ms"] = merge.per(time.Millisecond)
	m["campaignio.journal_b_per_record"] = float64(info.Size()) / float64(n)
	return nil
}

// resumeProbe journals shard 0 of 2 of fig2 and fig4 on the run's first
// benchmark, then times the rerun over the complete journals: the sharded
// resume path of durable-shards, which loads every owned slot and, because
// no point has all its slots in one shard, re-records the golden traces.
func resumeProbe(r *runner, dir string, m map[string]float64) error {
	var resume acc
	for _, exp := range durableExps {
		o := r.options(r.benches[:1])
		o.CampaignRoot = dir
		o.ShardIndex, o.ShardCount = 0, durableShardCount
		if err := experiments.RunShardable(exp, o); err != nil {
			return err
		}
		var err error
		resume.time(func() { err = experiments.RunShardable(exp, o) })
		if err != nil {
			return err
		}
	}
	m["inject.resume_ms"] = float64(resume.d) / float64(time.Millisecond)
	return nil
}

// serviceProbe measures the daemon on workloads that submit no jobs: a
// fresh daemon runs fig2 and fig4 jobs on the run's first benchmark at the
// warm-up size.
func serviceProbe(r *runner) ([]jobSample, error) {
	root := filepath.Join(r.opts.dir, "service-probe")
	defer os.RemoveAll(root)
	srv, client, err := startDaemon(service.Config{Root: root, MaxShards: 2, Workers: 1})
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown()
	var jobs []jobSample
	for _, exp := range []string{"fig2", "fig4", "fig2", "fig4"} {
		s, err := runJob(r, client, r.tracer, 0, exp, r.benches[0], warmupTrialFactor)
		if err != nil {
			return nil, err
		}
		if s.job.State != service.StateDone {
			return nil, fmt.Errorf("probe job %s ended %s: %s", s.job.ID, s.job.State, s.job.Error)
		}
		jobs = append(jobs, s)
	}
	return jobs, nil
}
