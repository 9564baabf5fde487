// Package service turns the one-shot campaign runner into a resident daemon:
// an HTTP server (exposed as `restore-sim serve`) with a persistent job
// queue. Campaigns are submitted as jobs, sharded across a bounded worker
// pool, journalled durably (internal/campaignio), and merged on completion —
// so a daemon that is killed and restarted resumes its queue and finishes
// every job with results byte-identical to a one-shot `restore-sim` run of
// the same plan.
//
// The determinism contract does all the heavy lifting: every trial is a pure
// function of the campaign configuration and its slot, so the service adds
// no state of its own to the results. What it adds is orchestration, and the
// orchestration is durable by construction:
//
//   - A job is a directory under <root>/jobs/<id> holding job.json (the
//     spec and state, written atomically) plus one campaign directory per
//     shard. The job record is the unit of queue durability; the shard
//     journals are the unit of trial durability.
//   - The scheduler persists state=running BEFORE the first shard starts.
//     A daemon killed at any instant restarts, finds the running job, and
//     re-queues it; the shards resume from their journals.
//   - Graceful shutdown closes the same Interrupt channel the CLI uses:
//     in-flight trials drain, journals flush, and the job returns to the
//     queue on disk.
//   - Merge-on-completion writes <root>/jobs/<id>/merged/<campaign>, whose
//     manifest and journal are byte-for-byte the files a serial one-shot
//     run with -out would have produced.
package service

import (
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// JobState is the lifecycle of a submitted campaign job.
//
//	queued ──▶ running ──▶ done
//	   ▲          │  ├───▶ failed
//	   │          │  └───▶ cancelled
//	   └──────────┘  (graceful shutdown or daemon crash re-queues)
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether a job in this state will never run again.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is a campaign submission: which experiment to run and how to scale
// and split it. The zero values of the optional fields mean "the CLI's
// defaults", so a spec of just {"experiment": "fig2"} is a paper-scale run.
type JobSpec struct {
	// Experiment names a shardable campaign experiment
	// (experiments.ShardableExperiments): fig2, fig2-low32, fig4,
	// fig4-latches, fig5, fig5-perfect, fig6.
	Experiment string `json:"experiment"`
	// Seed drives workload generation and injection sampling (0 = 42).
	Seed int64 `json:"seed,omitempty"`
	// Scale multiplies workload data-structure sizes (0 = 1.0).
	Scale float64 `json:"scale,omitempty"`
	// TrialFactor scales campaign sizes; 1.0 is paper scale (0 = 1.0).
	TrialFactor float64 `json:"trial_factor,omitempty"`
	// Benchmarks restricts the suite (empty = all seven).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Shards splits every campaign's trial slots across this many
	// journals, run concurrently up to the service's shard pool bound
	// (0 = 1). Results are byte-identical at any shard count.
	Shards int `json:"shards,omitempty"`
	// Workers is the per-shard engine goroutine count (0 = serial).
	// Inert: results are byte-identical at any worker count.
	Workers int `json:"workers,omitempty"`
}

// maxShardsPerJob bounds a single job's shard fan-out; the global pool bound
// (Config.MaxShards) governs how many run at once.
const maxShardsPerJob = 64

// normalize fills defaulted fields in place.
func (s *JobSpec) normalize() {
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	if s.TrialFactor == 0 {
		s.TrialFactor = 1.0
	}
}

// Validate rejects specs the runner could not execute, by name — submission
// is the right time to find a typo, not an hour into a queue.
func (s JobSpec) Validate() error {
	ok := false
	for _, name := range experiments.ShardableExperiments() {
		if s.Experiment == name {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("service: experiment %q cannot run as a job (shardable: %v)",
			s.Experiment, experiments.ShardableExperiments())
	}
	if s.Shards < 0 || s.Shards > maxShardsPerJob {
		return fmt.Errorf("service: %d shards (want 0..%d)", s.Shards, maxShardsPerJob)
	}
	if s.Workers < 0 {
		return fmt.Errorf("service: negative worker count %d", s.Workers)
	}
	if s.Seed < 0 || s.Scale < 0 || s.TrialFactor < 0 {
		return fmt.Errorf("service: negative seed/scale/trial_factor")
	}
	known := make(map[string]bool)
	for _, b := range workload.Benchmarks() {
		known[string(b)] = true
	}
	for _, b := range s.Benchmarks {
		if !known[b] {
			return fmt.Errorf("service: unknown benchmark %q (have %v)", b, workload.Benchmarks())
		}
	}
	return nil
}

// Job is the durable record of one submission plus its live progress.
type Job struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
	// Error holds the failure reason for StateFailed.
	Error string `json:"error,omitempty"`
	// Campaigns lists the merged campaign directory names (one per
	// benchmark) once the job is done; each lives under the job's merged/
	// directory and is a valid -out directory for result rendering.
	Campaigns []string `json:"campaigns,omitempty"`
	// TrialsDone counts trial completions observed this daemon lifetime
	// (journal-recovered slots included). Volatile: not persisted, resets
	// on restart. Zero total is unknowable cheaply, so only the count is
	// reported.
	TrialsDone int64 `json:"trials_done,omitempty"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// clone returns a copy safe to hand out of the service's lock.
func (j *Job) clone() *Job {
	c := *j
	c.Campaigns = append([]string(nil), j.Campaigns...)
	c.Spec.Benchmarks = append([]string(nil), j.Spec.Benchmarks...)
	if j.Started != nil {
		t := *j.Started
		c.Started = &t
	}
	if j.Finished != nil {
		t := *j.Finished
		c.Finished = &t
	}
	return &c
}
