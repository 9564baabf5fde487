package service

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/workload"
)

// tinySpec is a fig2 campaign scaled to the minimum trial count: fast enough
// for the race detector, big enough to interrupt mid-flight.
func tinySpec(benches ...string) JobSpec {
	return JobSpec{
		Experiment:  "fig2",
		Seed:        7,
		Scale:       0.5,
		TrialFactor: 0.01,
		Benchmarks:  benches,
		Shards:      2,
	}
}

func newTestService(t *testing.T, root string) *Service {
	t.Helper()
	svc, err := New(Config{Root: root, MaxShards: 2, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, svc *Service, id string) *Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for {
		j, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// oneShot runs the same experiment serially, unsharded, journalling under
// dir — the reference the service's merged output must match byte for byte.
func oneShot(t *testing.T, dir string, spec JobSpec) {
	t.Helper()
	benches := make([]workload.Benchmark, len(spec.Benchmarks))
	for i, b := range spec.Benchmarks {
		benches[i] = workload.Benchmark(b)
	}
	err := experiments.RunShardable(spec.Experiment, experiments.Options{
		Seed:         spec.Seed,
		Scale:        spec.Scale,
		TrialFactor:  spec.TrialFactor,
		Benchmarks:   benches,
		CampaignRoot: dir,
	})
	if err != nil {
		t.Fatalf("one-shot run: %v", err)
	}
}

// dirFiles reads every file under root, keyed by relative path.
func dirFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	return files
}

// requireByteIdentical asserts the merged job output equals the one-shot
// campaign directory file for file, byte for byte.
func requireByteIdentical(t *testing.T, mergedRoot, oneshotRoot string) {
	t.Helper()
	got, want := dirFiles(t, mergedRoot), dirFiles(t, oneshotRoot)
	if len(got) == 0 {
		t.Fatalf("no merged files under %s", mergedRoot)
	}
	for rel, w := range want {
		g, ok := got[rel]
		if !ok {
			t.Errorf("merged output missing %s", rel)
			continue
		}
		if string(g) != string(w) {
			t.Errorf("%s: merged bytes differ from one-shot (%d vs %d bytes)", rel, len(g), len(w))
		}
	}
	for rel := range got {
		if _, ok := want[rel]; !ok {
			t.Errorf("merged output has extra file %s", rel)
		}
	}
}

func TestJobRunsToMergedByteIdenticalResult(t *testing.T) {
	root := t.TempDir()
	svc := newTestService(t, root)
	defer svc.Close()

	spec := tinySpec("gzip")
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitTerminal(t, svc, j.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s (error %q), want done", final.State, final.Error)
	}
	if len(final.Campaigns) == 0 {
		t.Fatal("done job lists no merged campaigns")
	}
	if final.TrialsDone == 0 {
		t.Error("done job reports zero trials")
	}

	oneshotDir := filepath.Join(t.TempDir(), "oneshot")
	oneShot(t, oneshotDir, spec)
	requireByteIdentical(t, svc.st.mergedDir(j.ID), oneshotDir)
}

// TestKillRestartResumesByteIdentical is the headline lifecycle guarantee:
// submit, kill the daemon mid-campaign (hard crash: the job record still says
// running), restart on the same root, and the job auto-resumes from its shard
// journals to a merged result byte-identical to a serial one-shot run. The
// full seven-benchmark suite runs in normal builds; under -race one benchmark
// keeps the test inside CI budgets.
func TestKillRestartResumesByteIdentical(t *testing.T) {
	benches := []string{"gzip"}
	if !raceEnabled {
		benches = nil // all seven
	}
	spec := tinySpec(benches...)

	root := t.TempDir()
	svc := newTestService(t, root)
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Let the campaign get under way, then take the daemon down. Close is
	// the graceful half (drain, flush, re-queue durably)...
	deadline := time.Now().Add(2 * time.Minute)
	for {
		cur, _ := svc.Job(j.ID)
		if cur.TrialsDone > 0 || cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	onDisk, err := svc.st.loadJob(j.ID)
	if err != nil {
		t.Fatalf("loadJob after shutdown: %v", err)
	}
	if !onDisk.State.Terminal() && onDisk.State != StateQueued {
		t.Fatalf("job persisted as %s after shutdown, want queued or terminal", onDisk.State)
	}

	// ...and rewriting the record to running simulates the hard crash: a
	// daemon SIGKILLed between starting shards and persisting any outcome.
	if onDisk.State == StateQueued {
		onDisk.State = StateRunning
		if err := svc.st.saveJob(onDisk); err != nil {
			t.Fatalf("simulating crash marker: %v", err)
		}
	}

	svc2 := newTestService(t, root)
	defer svc2.Close()
	final := waitTerminal(t, svc2, j.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job ended %s (error %q), want done", final.State, final.Error)
	}

	oneshotDir := filepath.Join(t.TempDir(), "oneshot")
	oneShot(t, oneshotDir, spec)
	requireByteIdentical(t, svc2.st.mergedDir(j.ID), oneshotDir)
}

func TestCancelRunningJob(t *testing.T) {
	root := t.TempDir()
	svc := newTestService(t, root)
	defer svc.Close()

	// A bigger trial factor keeps the job running long enough to cancel.
	spec := tinySpec("gzip")
	spec.TrialFactor = 0.25
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		cur, _ := svc.Job(j.ID)
		if cur.State == StateRunning && cur.TrialsDone > 0 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished (%s) before it could be cancelled", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := svc.Cancel(j.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final := waitTerminal(t, svc, j.ID)
	if final.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", final.State)
	}
	onDisk, err := svc.st.loadJob(j.ID)
	if err != nil {
		t.Fatalf("loadJob: %v", err)
	}
	if onDisk.State != StateCancelled {
		t.Fatalf("persisted state %s, want cancelled", onDisk.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	root := t.TempDir()
	svc := newTestService(t, root)
	defer svc.Close()

	// Occupy the scheduler, then cancel a job that is still queued behind it.
	first, err := svc.Submit(tinySpec("gzip"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	second, err := svc.Submit(tinySpec("gzip"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j, err := svc.Cancel(second.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if j.State != StateCancelled {
		t.Fatalf("queued job cancel left state %s", j.State)
	}
	if final := waitTerminal(t, svc, first.ID); final.State != StateDone {
		t.Fatalf("first job ended %s, want done", final.State)
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Close()

	cases := []JobSpec{
		{Experiment: "fig8"},                                // derived, not shardable
		{Experiment: "nope"},                                // unknown
		{Experiment: "fig2", Shards: 1000},                  // over the fan-out bound
		{Experiment: "fig2", Benchmarks: []string{"spice"}}, // unknown benchmark
		{Experiment: "fig2", Workers: -2},
	}
	for _, spec := range cases {
		if _, err := svc.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted, want error", spec)
		}
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Fatalf("%d jobs recorded after rejected submissions", n)
	}
}

func TestQueueSurvivesRestartInOrder(t *testing.T) {
	root := t.TempDir()
	svc := newTestService(t, root)
	a, err := svc.Submit(tinySpec("gzip"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	b, err := svc.Submit(tinySpec("mcf"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	svc2 := newTestService(t, root)
	defer svc2.Close()
	jobs := svc2.Jobs()
	if len(jobs) != 2 || jobs[0].ID != a.ID || jobs[1].ID != b.ID {
		t.Fatalf("restarted queue = %v, want [%s %s]", jobs, a.ID, b.ID)
	}
	for _, id := range []string{a.ID, b.ID} {
		if final := waitTerminal(t, svc2, id); final.State != StateDone {
			t.Fatalf("job %s ended %s, want done", id, final.State)
		}
	}
	// IDs keep ascending across restarts.
	c, err := svc2.Submit(tinySpec("gzip"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if c.ID <= b.ID {
		t.Fatalf("new job ID %s does not follow %s", c.ID, b.ID)
	}
	waitTerminal(t, svc2, c.ID)
}

func TestStoreSkipsUncommittedJobDirs(t *testing.T) {
	root := t.TempDir()
	st, err := newStore(root)
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	// A crash between MkdirAll and the first saveJob leaves an empty dir.
	if err := os.MkdirAll(st.jobDir("job-000001"), 0o755); err != nil {
		t.Fatal(err)
	}
	jobs, err := st.listJobs()
	if err != nil {
		t.Fatalf("listJobs: %v", err)
	}
	if len(jobs) != 0 {
		t.Fatalf("listJobs found %d jobs in an uncommitted dir", len(jobs))
	}
	// And the next ID must not collide with the half-made directory.
	id, err := st.nextID()
	if err != nil {
		t.Fatalf("nextID: %v", err)
	}
	if id != "job-000002" {
		t.Fatalf("nextID = %s, want job-000002", id)
	}
}

// A job.json written before a JobSpec field was retired still loads: only
// the submit decoder refuses unknown fields.
func TestStoreLoadsRetiredSpecFields(t *testing.T) {
	st, err := newStore(t.TempDir())
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	const id = "job-000001"
	if err := os.MkdirAll(st.jobDir(id), 0o755); err != nil {
		t.Fatal(err)
	}
	record := `{"id":"job-000001","spec":{"experiment":"fig2","shards":2,"compress_journal":true},"state":"queued"}`
	if err := os.WriteFile(st.jobFile(id), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := st.loadJob(id)
	if err != nil {
		t.Fatalf("loadJob: %v", err)
	}
	if j.State != StateQueued || j.Spec.Experiment != "fig2" || j.Spec.Shards != 2 {
		t.Fatalf("loaded %+v", j)
	}
}

// When a job record cannot be saved the job fails, and its error names the
// state the daemon meant to persist.
func TestFinishJobNamesUnsavedState(t *testing.T) {
	st, err := newStore(t.TempDir())
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	const id = "job-000001"
	// A regular file where the job's directory belongs fails every save.
	if err := os.WriteFile(st.jobDir(id), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := &Service{
		cfg:     Config{Obs: obs.NewRegistry(), Logf: t.Logf},
		st:      st,
		jobs:    map[string]*Job{id: {ID: id, Spec: tinySpec("gzip"), State: StateRunning}},
		cancels: map[string]chan struct{}{},
	}
	s.finishJob(id, make(chan struct{}), nil, true) // daemon shutdown: re-queue
	if j := s.jobs[id]; j.State != StateFailed || !strings.Contains(j.Error, "persisting queued state") {
		t.Fatalf("job is %s with error %q, want failed persisting the queued state", j.State, j.Error)
	}
}

func TestReadAddrMissing(t *testing.T) {
	_, err := ReadAddr(t.TempDir())
	if err == nil {
		t.Fatal("ReadAddr succeeded with no daemon")
	}
	if !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "restore-sim serve") {
		t.Fatalf("ReadAddr error %v, want wrapped not-exist mentioning the daemon", err)
	}
}
