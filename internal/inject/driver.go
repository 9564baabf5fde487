// The campaign driver: the one loop both injection campaigns run under.
//
// The paper's two campaigns share one method — pick injection points, record
// a golden continuation at each, run N faulty trials against it — and differ
// only in the fault model. run owns everything else: sharding validation,
// the durable journal and slot recovery, slot ownership and progress, the
// point loop with its interrupt, proof, truncation and drain rules, and the
// shared telemetry. A faultModel (uarch.go, vm.go) supplies only what differs
// between the campaigns, the warm-up included.
package inject

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/campaignio"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Exec says how a campaign runs, as opposed to what it computes. No field
// changes a single trial result, so none enters the plan fingerprint: a
// campaign journalled serially resumes under any worker count, shard layout
// or golden-image directory.
type Exec struct {
	// Workers is the number of goroutines trials fan out across; 0 (or 1)
	// runs the campaign serially on the calling goroutine. Results are
	// bit-identical for every worker count: all random picks are pre-drawn
	// serially and each trial writes a pre-assigned result slot.
	Workers int

	// Progress, if set, is called once for every trial slot this run owns —
	// run now or recovered from the journal — with the running and total
	// counts. With Workers > 1 it is invoked from worker goroutines and must
	// be safe for concurrent use. It must not influence campaign state.
	Progress func(done, total int)

	// Obs, if non-nil, receives campaign telemetry under the campaign_uarch_*
	// or campaign_vm_* namespace (the microarchitectural campaign adds
	// per-stage pipeline_* metrics from its master pipeline). Purely
	// observational: results are byte-identical with or without a sink.
	Obs obs.Sink

	// ResumeFrom, if non-empty, makes the campaign durable: a manifest and an
	// append-only checksummed trial journal live in this directory
	// (internal/campaignio). Slots already journalled are loaded instead of
	// re-run and newly completed trials are appended, so an interrupted
	// campaign pointed back at the directory continues where it stopped, with
	// results byte-identical to a one-shot run. The manifest is validated
	// against the configuration's plan fingerprint; a mismatch is an error,
	// never a silent overwrite.
	ResumeFrom string

	// ShardIndex/ShardCount partition the pre-drawn trial plan across
	// processes: shard i of n runs the slots s with s%n == i, journalling
	// into its own ResumeFrom directory. The shard directories merge with
	// campaignio.MergeScan and WriteMerged, as the restore-sim merge
	// subcommand does, and a run resumed from the merged directory returns
	// the full result without re-running a trial. Zero ShardCount means
	// unsharded. Sharding requires ResumeFrom.
	ShardIndex int
	ShardCount int

	// GoldenImageDir, if non-empty, is a directory of warmed-state golden
	// images (internal/ckptio), one per microarchitectural warm-up and named
	// after it. When the campaign's image exists it restores the warm-up
	// boundary from it instead of simulating there; when it does not, the
	// campaign warms up and saves the image for the next run, so N shards
	// and every campaign that shares the warm-up pay for it once. The image
	// records the inputs that produced it; loading a mismatched image is an
	// error. A run whose journal leaves nothing to simulate neither loads
	// nor saves an image. VM campaigns ignore it: their warm-up costs less
	// than an image load.
	GoldenImageDir string

	// Interrupt, if non-nil, stops the campaign cleanly when it becomes
	// readable: in-flight trials drain, the journal tail is flushed, and the
	// run returns ErrInterrupted.
	Interrupt <-chan struct{}

	// noDecodeCache and noEarlyExit switch off the shared pre-decoded
	// instruction cache and the early-exit trial loops. Both speedups are
	// inert; in-package tests set these to prove it.
	noDecodeCache, noEarlyExit bool
}

// faultModel is what one injection campaign adds to the driver.
type faultModel[T trialRecord] interface {
	// warmUp brings the golden run to the warm-up boundary. It runs only
	// when some point needs the golden run.
	warmUp() error
	// plan draws the injection points and every per-slot pick in the
	// campaign's fixed RNG order, and returns the number of points.
	plan() (points int, err error)
	// advance walks the golden run to point i; false means the program
	// ended first and the campaign truncates there.
	advance(i int) (bool, error)
	// record records the golden continuation at the current point; false
	// truncates as advance does.
	record() (bool, error)
	// prepare sets up slot's trial in *out. It either completes the trial
	// and returns true, or hands the simulation to w.submit and returns
	// false.
	prepare(slot int, out *T, w *engine) bool
}

// trialRecord is a campaign's per-slot result type.
type trialRecord interface {
	// outcome is the trial's telemetry category at the observation window.
	outcome(window uint64) string
}

// campaignSpec is a configuration as the driver sees it: the manifest
// identity of its plan and the window its outcomes are classified at.
type campaignSpec struct {
	kind   string // "uarch" or "vm"
	plan   string // the canonical plan string the fingerprint hashes
	seed   int64
	bench  workload.Benchmark
	slots  int
	window uint64
	aux    json.RawMessage // manifest aggregates a merge cannot recompute
}

// id names the campaign directory: kind, benchmark and plan fingerprint.
func (s campaignSpec) id() string {
	return fmt.Sprintf("%s-%s-%s", s.kind, s.bench, fingerprint(s.plan))
}

func (s campaignSpec) manifest(x *Exec) campaignio.Manifest {
	return campaignio.Manifest{
		Version:    campaignio.FormatVersion,
		Kind:       s.kind,
		ConfigHash: fingerprint(s.plan),
		Seed:       s.seed,
		Bench:      string(s.bench),
		Slots:      s.slots,
		ShardIndex: x.ShardIndex,
		ShardCount: max(x.ShardCount, 1),
		Aux:        s.aux,
	}
}

// run executes one campaign and returns its trials, cut at the truncation
// point if the program ended early. With ShardCount > 1 the slots of other
// shards stay zero-valued.
func run[T trialRecord](spec campaignSpec, x Exec, m faultModel[T]) ([]T, error) {
	if err := validateSharding(x.ResumeFrom, x.ShardIndex, x.ShardCount); err != nil {
		return nil, err
	}
	prefix := "campaign_" + spec.kind
	wall := x.Obs.Timer(prefix + "_wall").Start()
	points, err := m.plan()
	if err != nil {
		return nil, err
	}
	// The slots spread evenly over the points, the first slots%points
	// points taking one extra: point i owns [first(i), first(i+1)).
	per, extra := spec.slots/points, spec.slots%points
	first := func(i int) int { return i*per + min(i, extra) }
	trials := make([]T, spec.slots)

	// Durable campaigns: recover journalled slots straight into their result
	// slots. Every pick is pre-drawn above, so skipping them cannot perturb
	// the RNG stream.
	man := spec.manifest(&x)
	var jr *campaignJournal
	done := make([]bool, len(trials))
	if x.ResumeFrom != "" {
		var loaded [][]byte
		if jr, loaded, err = openCampaignJournal(x.ResumeFrom, man); err != nil {
			return nil, err
		}
		for slot, p := range loaded {
			if p == nil {
				continue
			}
			if err := json.Unmarshal(p, &trials[slot]); err != nil {
				jr.finish(nil, "")
				return nil, fmt.Errorf("inject: %s: %w: slot %d: %v",
					x.ResumeFrom, campaignio.ErrCorrupt, slot, err)
			}
			done[slot] = true
		}
	}
	// Progress counts the slots this run is responsible for: owned slots,
	// whether recovered or re-run.
	total := 0
	for slot := range trials {
		if man.Owns(slot) {
			total++
		}
	}
	var completed atomic.Int64
	tick := func() {
		n := completed.Add(1)
		if x.Progress != nil {
			x.Progress(int(n), total)
		}
	}
	retire := func(slot int) {
		jr.record(slot, &trials[slot])
		tick()
	}

	// A point needs the golden run where this run owes a trial, or where it
	// has slots and none was recovered: only a recovered slot proves that the
	// golden run got through the point (see journal.go), ownership alone never
	// does. The golden run goes no further than the last point that needs it;
	// the points past that one are proven, so none of them truncates and
	// their owned slots tick as recovered.
	need := make([]bool, points)
	last := -1
	for pi := range need {
		lo, hi := first(pi), first(pi+1)
		recovered, owed := false, false
		for slot := lo; slot < hi; slot++ {
			recovered = recovered || done[slot]
			owed = owed || !done[slot] && man.Owns(slot)
		}
		need[pi] = owed || lo < hi && !recovered
		if need[pi] {
			last = pi
		}
	}
	if last >= 0 {
		if err := m.warmUp(); err != nil {
			jr.finish(nil, "")
			return nil, err
		}
	}

	w := newEngine(x.Workers, x.Obs, prefix, retire)
	pointsRun, stopped := 0, false
	for pi := 0; pi < points; pi++ {
		lo, hi := first(pi), first(pi+1)
		// Every point up to the last needed one is walked to, recorded or
		// not: the VM walker finds each injection from the previous point.
		if pi <= last {
			ok, err := m.advance(pi)
			if ok && err == nil && need[pi] {
				ok, err = m.record()
			}
			if err != nil {
				w.wait()
				jr.finish(x.Obs, prefix)
				return nil, err
			}
			if !ok {
				break // the program ends before or inside this point: truncate
			}
		}
		// The interrupt is checked before every trial that would run, so
		// points that are recovered or another shard's never stop a run.
		for slot := lo; slot < hi && !stopped; slot++ {
			switch {
			case !man.Owns(slot): // another shard's slot
			case done[slot]:
				tick() // recovered from the journal
			case interrupted(x.Interrupt):
				stopped = true
			case m.prepare(slot, &trials[slot], w):
				retire(slot) // a µarch slot completed in prepare: protected, or resolved from the golden log
			}
		}
		if stopped {
			break
		}
		pointsRun = pi + 1
	}
	w.wait()
	if stopped {
		// Drained workers have journalled their trials; flush the tail so a
		// resumed run recovers every completed slot.
		x.Obs.Counter(prefix + "_interrupted_total").Inc()
		if err := jr.finish(x.Obs, prefix); err != nil {
			return nil, err
		}
		return nil, ErrInterrupted
	}
	trials = trials[:first(pointsRun)]
	recordCampaign(x.Obs, prefix, trials, spec.window, pointsRun, pointsRun < points, wall.Stop())
	if err := jr.finish(x.Obs, prefix); err != nil {
		return nil, err
	}
	return trials, nil
}
