package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/campaignio"
	"repro/internal/experiments"
	"repro/internal/inject"
	"repro/internal/service"
	"repro/internal/workload"
)

// workloadDef fixes one workload: its campaign size and the engine workers of
// each campaign call (0 or 1 is serial). Every workload runs all seven
// benchmarks at Scale 1.0 from one process, with at most two simulation
// goroutines and at most one client connection. README.md says why each was
// chosen.
type workloadDef struct {
	trialFactor float64
	workers     int
	make        func() workloadRunner
}

var workloads = map[string]workloadDef{
	"uarch-paper": {
		trialFactor: 1.0,
		workers:     0,
		make:        func() workloadRunner { return &uarchPaper{} },
	},
	"vm-par2": {
		trialFactor: 0.5,
		workers:     2,
		make:        func() workloadRunner { return &vmPar2{} },
	},
	"durable-shards": {
		trialFactor: 0.1,
		workers:     0,
		make:        func() workloadRunner { return &durableShards{} },
	},
	"service-jobs": {
		trialFactor: 0.1,
		workers:     1,
		make:        func() workloadRunner { return &serviceJobs{} },
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// warmupBench and warmupTrialFactor size the warm-up campaign every set-up
// runs, so that heap growth and first-use costs are not timed.
const (
	warmupBench       = workload.Gzip
	warmupTrialFactor = 0.02
)

// refIndex picks the benchmark (or experiment) of a reference run from the
// seed, so that different seeds check different outputs.
func (r *runner) refIndex(n int) int {
	return int(uint64(r.opts.seed) % uint64(n))
}

// campaignRound runs one campaign call per benchmark, each an operation
// keyed exp/bench whose digest is the canonical JSON of its trials. keep,
// if set, sees every benchmark's trials of the first round.
func campaignRound[T any](r *runner, rd *round, exp, spanName string,
	call func(o experiments.Options) ([]T, error), keep func([]T)) {
	for _, b := range r.benches {
		key := exp + "/" + string(b)
		var trials []T
		start := time.Now()
		err := r.tr.call(rd.span, spanName, key, func() (err error) {
			trials, err = call(r.options([]workload.Benchmark{b}))
			return err
		})
		rd.lat[key] = time.Since(start).Seconds()
		rd.trials += len(trials)
		d := ""
		if err == nil {
			d, err = digestJSON(trials)
		}
		r.op(key, d, err)
		if err == nil && rd.index == 0 {
			if keep != nil {
				keep(trials)
			}
			if r.payloads == nil {
				r.payloads, err = trialPayloads(trials)
				if err != nil {
					r.fail("%s: encoding journal payloads: %v", key, err)
				}
			}
		}
	}
}

// trialPayloads encodes trials the way the campaign journal records them.
func trialPayloads[T any](trials []T) ([][]byte, error) {
	out := make([][]byte, len(trials))
	for i := range trials {
		p, err := json.Marshal(&trials[i])
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// verifyCampaign reruns one benchmark with another worker count; the
// determinism contract says the trials are byte-identical.
func verifyCampaign[T any](r *runner, exp string, call func(o experiments.Options) ([]T, error), workers int) {
	b := r.benches[r.refIndex(len(r.benches))]
	o := r.options([]workload.Benchmark{b})
	o.Workers = workers
	trials, err := call(o)
	d := ""
	if err == nil {
		d, err = digestJSON(trials)
	}
	r.expect(exp+"/"+string(b), d, err)
}

// ---------------------------------------------------------------------------
// uarch-paper

// uarchPaper keeps the first round's trials for the paper column.
type uarchPaper struct{ trials []inject.UArchTrial }

func uarchCampaign(o experiments.Options) ([]inject.UArchTrial, error) {
	exp, err := experiments.Campaign(o, experiments.CampaignConfig{})
	if err != nil {
		return nil, err
	}
	return exp.AllTrials, nil
}

func (*uarchPaper) setup(r *runner) error {
	o := r.options([]workload.Benchmark{warmupBench})
	o.TrialFactor = warmupTrialFactor
	_, err := uarchCampaign(o)
	return err
}

func (w *uarchPaper) round(r *runner, rd *round) error {
	campaignRound(r, rd, "fig4", "experiments.Campaign", uarchCampaign, func(t []inject.UArchTrial) {
		w.trials = append(w.trials, t...)
	})
	return nil
}

func (*uarchPaper) verify(r *runner) { verifyCampaign(r, "fig4", uarchCampaign, 2) }

func (*uarchPaper) close() error { return nil }

// paperReference prints the Figure 4 statistics the paper reports.
func (u *uarchPaper) paperReference(w io.Writer) {
	trials := u.trials
	if len(trials) == 0 {
		return
	}
	raw := inject.RawFailureRate(trials)
	at100 := inject.FailureRate(trials, 100, inject.DetectorPerfect)
	fmt.Fprintf(w, "paper raw_failure_rate     %.4f   paper ~0.07 (informational, %d trials)\n", raw, len(trials))
	fmt.Fprintf(w, "paper failure_rate@100     %.4f   paper ~half of raw; measured %.2f of raw\n", at100, at100/max(raw, 1e-12))
}

// ---------------------------------------------------------------------------
// vm-par2

// vmPar2 keeps the first round's trials for the paper column.
type vmPar2 struct{ trials []inject.VMTrial }

func vmCampaign(o experiments.Options) ([]inject.VMTrial, error) {
	res, err := experiments.Fig2(o, false)
	if err != nil {
		return nil, err
	}
	return res.AllTrials, nil
}

func (*vmPar2) setup(r *runner) error {
	o := r.options([]workload.Benchmark{warmupBench})
	o.TrialFactor = warmupTrialFactor
	_, err := vmCampaign(o)
	return err
}

func (w *vmPar2) round(r *runner, rd *round) error {
	campaignRound(r, rd, "fig2", "experiments.Fig2", vmCampaign, func(t []inject.VMTrial) {
		w.trials = append(w.trials, t...)
	})
	return nil
}

func (*vmPar2) verify(r *runner) { verifyCampaign(r, "fig2", vmCampaign, 0) }

func (*vmPar2) close() error { return nil }

// paperReference prints the Figure 2 statistic the paper reports.
func (v *vmPar2) paperReference(w io.Writer) {
	if len(v.trials) == 0 {
		return
	}
	res := inject.VMResult{Trials: v.trials}
	fmt.Fprintf(w, "paper masked_fraction      %.4f   paper ~0.59 (informational, %d trials)\n", res.MaskedFraction(), len(v.trials))
}

// ---------------------------------------------------------------------------
// durable-shards

// durableExps are the campaigns durable-shards journals, in run order.
var durableExps = []string{"fig2", "fig4"}

const durableShardCount = 2

type durableShards struct{}

func (durableShards) setup(r *runner) error {
	dir := filepath.Join(r.opts.dir, "setup-"+strconv.Itoa(r.setups))
	defer os.RemoveAll(dir)
	for _, exp := range durableExps {
		o := r.options([]workload.Benchmark{warmupBench})
		o.TrialFactor = warmupTrialFactor
		o.CampaignRoot = filepath.Join(dir, "campaigns")
		o.GoldenImageRoot = filepath.Join(dir, "golden")
		if err := experiments.RunShardable(exp, o); err != nil {
			return err
		}
	}
	return nil
}

func (durableShards) round(r *runner, rd *round) error {
	dir := filepath.Join(r.opts.dir, "round-"+strconv.Itoa(rd.index))
	defer os.RemoveAll(dir)
	shardRoot := func(k int) string { return filepath.Join(dir, "shards", strconv.Itoa(k)) }
	var ticks atomic.Int64
	shardOpts := func(k int) experiments.Options {
		o := r.options(r.benches)
		o.CampaignRoot = shardRoot(k)
		o.ShardIndex, o.ShardCount = k, durableShardCount
		o.GoldenImageRoot = filepath.Join(dir, "golden")
		o.Progress = func(int, int) { ticks.Add(1) }
		return o
	}
	// shard runs one shard of one campaign as a latency-bearing operation.
	shard := func(parent int, pass, exp string, k int) error {
		key := fmt.Sprintf("%s/%s/%d", pass, exp, k)
		start := time.Now()
		err := r.tr.call(parent, "experiments.RunShardable", key, func() error {
			return experiments.RunShardable(exp, shardOpts(k))
		})
		rd.lat[key] = time.Since(start).Seconds()
		return err
	}

	// Write pass: every shard journals its slots; shard 0 of each campaign
	// writes the golden images, shard 1 loads them.
	start := time.Now()
	pass := r.tr.open(rd.span, "bench.write_pass", "write")
	for _, exp := range durableExps {
		for k := 0; k < durableShardCount; k++ {
			r.op(fmt.Sprintf("write/%s/%d", exp, k), "", shard(pass, "write", exp, k))
		}
	}
	r.tr.close(pass)
	rd.timed = time.Since(start)
	rd.trials = int(ticks.Load())

	// Resume pass: every journal is complete, so a rerun re-records the
	// golden traces and re-runs no trial. The journals must not change.
	pass = r.tr.open(rd.span, "bench.resume_pass", "resume")
	for _, exp := range durableExps {
		for k := 0; k < durableShardCount; k++ {
			before, err := digestTree(shardRoot(k))
			if err == nil {
				err = shard(pass, "resume", exp, k)
			}
			if err == nil {
				var after string
				if after, err = digestTree(shardRoot(k)); err == nil && after != before {
					err = errors.New("resuming complete journals changed the shard directory")
				}
			}
			r.op(fmt.Sprintf("resume/%s/%d", exp, k), "", err)
		}
	}
	r.tr.close(pass)

	pass = r.tr.open(rd.span, "bench.merge", "merge")
	defer r.tr.close(pass)
	cids, err := campaignio.ListCampaigns(shardRoot(0))
	if err != nil || len(cids) == 0 {
		r.op("merge", "", fmt.Errorf("listing campaigns: %v (%d found)", err, len(cids)))
		return nil
	}
	for _, cid := range cids {
		dirs := make([]string, durableShardCount)
		for k := range dirs {
			dirs[k] = filepath.Join(shardRoot(k), cid)
		}
		out := filepath.Join(dir, "merged", cid)
		var payloads [][]byte
		err := mergeCampaign(r, pass, cid, dirs, out, &payloads)
		d := ""
		if err == nil {
			d, err = digestCampaignDir(out)
		}
		r.op("merge/"+cid, d, err)
		if err == nil && r.payloads == nil {
			r.payloads = payloads
		}
	}
	rd.disk, err = dirBytes(dir)
	return err
}

// mergeCampaign merges one campaign's shard directories into out.
func mergeCampaign(r *runner, parent int, cid string, dirs []string, out string, payloads *[][]byte) error {
	var man campaignio.Manifest
	err := r.tr.call(parent, "campaignio.MergeScan", cid, func() (err error) {
		man, *payloads, err = campaignio.MergeScan(dirs)
		return err
	})
	if err != nil {
		return err
	}
	return r.tr.call(parent, "campaignio.WriteMerged", cid, func() error {
		return campaignio.WriteMerged(out, man, *payloads)
	})
}

// verify runs one campaign unsharded in one shot; its campaign directory
// must be byte-identical to the merged shards.
func (durableShards) verify(r *runner) {
	exp := durableExps[r.refIndex(len(durableExps))]
	b := r.benches[r.refIndex(len(r.benches))]
	cid, d, err := oneShot(r, exp, b)
	r.expect("merge/"+cid, d, err)
}

// oneShot runs exp on one benchmark as a single durable campaign and
// returns its campaign ID and the digest of its directory.
func oneShot(r *runner, exp string, b workload.Benchmark) (string, string, error) {
	root := filepath.Join(r.opts.dir, "oneshot")
	defer os.RemoveAll(root)
	o := r.options([]workload.Benchmark{b})
	o.CampaignRoot = root
	if err := experiments.RunShardable(exp, o); err != nil {
		return "", "", err
	}
	cids, err := campaignio.ListCampaigns(root)
	if err != nil {
		return "", "", err
	}
	if len(cids) != 1 {
		return "", "", fmt.Errorf("one-shot %s on %s journalled %d campaigns", exp, b, len(cids))
	}
	d, err := digestCampaignDir(filepath.Join(root, cids[0]))
	return cids[0], d, err
}

func (durableShards) close() error { return nil }

// ---------------------------------------------------------------------------
// service-jobs

// serviceExps are the experiments each benchmark submits, in order. A round
// submits them twice: the first pass starts from an empty golden-image
// cache, so every job warms up and writes its image; the second pass
// repeats the same jobs and loads those images instead.
var serviceExps = []string{"fig2", "fig4", "fig6"}

const servicePasses = 2

// servicePoll is the client's status poll interval.
const servicePoll = 10 * time.Millisecond

type serviceJobs struct {
	root   string
	srv    *service.Server
	client *service.Client
}

// jobSample is one job as the client and the daemon saw it.
type jobSample struct {
	job       *service.Job
	submit    time.Duration // the Submit call
	seen      time.Time     // when Wait returned the terminal record
	statusGet time.Duration // one status GET after the job ended (traced rounds)
}

func (s jobSample) latency() time.Duration { return s.job.Finished.Sub(s.job.Submitted) }

// startDaemon starts an in-process daemon on a free loopback port and waits
// for its first healthy /healthz.
func startDaemon(cfg service.Config) (*service.Server, *service.Client, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	srv := service.NewServer(svc)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, nil, err
	}
	client := &service.Client{Base: addr}
	deadline := time.Now().Add(10 * time.Second)
	for !client.Healthy() {
		if time.Now().After(deadline) {
			srv.Shutdown()
			return nil, nil, fmt.Errorf("daemon at %s never became healthy", addr)
		}
		time.Sleep(time.Millisecond)
	}
	return srv, client, nil
}

// setup starts the daemon. A daemon's sink is fixed when it starts, so in a
// traced run the untraced rounds feed the registry too; the counters still
// cover traced rounds only, because they are deltas around each of them.
func (w *serviceJobs) setup(r *runner) error {
	w.root = filepath.Join(r.opts.dir, "service-"+strconv.Itoa(r.setups))
	srv, client, err := startDaemon(service.Config{
		Root: w.root, MaxShards: 2, Workers: r.workers, Obs: r.registry,
	})
	if err != nil {
		return err
	}
	w.srv, w.client = srv, client
	s, err := runJob(r, client, nil, 0, "fig2", warmupBench, warmupTrialFactor)
	if err == nil && s.job.State != service.StateDone {
		err = fmt.Errorf("warm-up job %s ended %s: %s", s.job.ID, s.job.State, s.job.Error)
	}
	return err
}

// runJob submits one job and waits for it with the client's poll loop. With
// a tracer it also times one status GET after the job ended and records the
// job's spans: the job, the client's Submit and Wait calls, and the daemon's
// queued and running phases from the job record's timestamps.
func runJob(r *runner, c *service.Client, tr *tracer, parent int, exp string, b workload.Benchmark, tf float64) (jobSample, error) {
	spec := service.JobSpec{
		Experiment:  exp,
		Seed:        r.opts.seed,
		TrialFactor: tf,
		Benchmarks:  []string{string(b)},
		Shards:      2,
	}
	t0 := time.Now()
	j, err := c.Submit(spec)
	t1 := time.Now()
	if err != nil {
		return jobSample{}, err
	}
	done, err := c.Wait(j.ID, servicePoll, nil)
	seen := time.Now()
	if err != nil {
		return jobSample{}, err
	}
	s := jobSample{job: done, submit: t1.Sub(t0), seen: seen}
	if tr != nil {
		t2 := time.Now()
		if _, err := c.Job(j.ID); err != nil {
			return jobSample{}, err
		}
		s.statusGet = time.Since(t2)
		op := j.ID
		id := tr.add(parent, "service.job", op, t0, seen)
		tr.add(id, "service.Submit", op, t0, t1)
		tr.add(id, "service.Wait", op, t1, seen)
		if done.Started != nil && done.Finished != nil {
			tr.add(id, "service.queued", op, done.Submitted, *done.Started)
			tr.add(id, "service.running", op, *done.Started, *done.Finished)
		}
	}
	return s, nil
}

func (w *serviceJobs) round(r *runner, rd *round) error {
	// Every round starts with an empty golden-image cache, so rounds do the
	// same work.
	if err := os.RemoveAll(filepath.Join(w.root, "golden")); err != nil {
		return err
	}
	before, err := dirBytes(w.root)
	if err != nil {
		return err
	}
	for pass := 0; pass < servicePasses; pass++ {
		for _, b := range r.benches {
			for _, exp := range serviceExps {
				// Both passes share the key, so the warm pass's output is
				// checked against the cold pass's.
				key := exp + "/" + string(b)
				s, err := runJob(r, w.client, r.tr, rd.span, exp, b, r.trialFactor)
				d := ""
				if err == nil {
					rd.jobs = append(rd.jobs, s)
					rd.lat[fmt.Sprintf("%d/%s", pass, key)] = s.latency().Seconds()
					rd.trials += int(s.job.TrialsDone)
					d, err = w.jobDigest(r, s.job, rd.index == 0)
				}
				r.op(key, d, err)
			}
		}
	}
	after, err := dirBytes(w.root)
	rd.disk = after - before
	return err
}

// jobDigest checks that a job ended done and digests its merged campaign.
func (w *serviceJobs) jobDigest(r *runner, j *service.Job, keepPayloads bool) (string, error) {
	if j.State != service.StateDone {
		return "", fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	if len(j.Campaigns) != 1 {
		return "", fmt.Errorf("job %s merged %d campaigns, want 1", j.ID, len(j.Campaigns))
	}
	dir := filepath.Join(w.root, "jobs", j.ID, "merged", j.Campaigns[0])
	if keepPayloads && r.payloads == nil {
		man, err := campaignio.ReadManifest(dir)
		if err != nil {
			return "", err
		}
		scan, err := campaignio.ScanJournal(dir, man.Slots)
		if err != nil {
			return "", err
		}
		for _, rec := range scan.Records {
			r.payloads = append(r.payloads, rec.Payload)
		}
	}
	return digestCampaignDir(dir)
}

// verify runs one job's campaign unsharded in one shot, outside the daemon;
// the job's merged output must be byte-identical to it.
func (w *serviceJobs) verify(r *runner) {
	exp := serviceExps[r.refIndex(len(serviceExps))]
	b := r.benches[r.refIndex(len(r.benches))]
	_, d, err := oneShot(r, exp, b)
	r.expect(exp+"/"+string(b), d, err)
}

func (w *serviceJobs) close() error {
	if w.srv == nil {
		return nil
	}
	err := w.srv.Shutdown()
	w.srv, w.client = nil, nil
	return err
}
