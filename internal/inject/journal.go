// Durable campaigns: resuming, sharding and merging.
//
// Both campaign engines are pure functions of their configuration — every
// random decision is pre-drawn from the seed and every trial fills a
// pre-assigned (point, trial) slot. That purity is what makes durability
// cheap: a campaign directory (internal/campaignio) is nothing more than a
// cache of slots already computed, keyed by a fingerprint of every
// plan-relevant configuration field. A run pointed at the directory loads the
// cached slots, re-runs only the missing ones, and produces a result
// byte-identical to a one-shot serial run; k processes configured as shards
// k/n each own the slots s with s%n == k-1 and their merged journals
// reconstruct the same result.
//
// The proof rule: a workload that halts early truncates a campaign at a point
// boundary, deterministically, and no run of the same plan journals a slot at
// or past the cut. So a recovered slot proves that the golden run reached its
// point and recorded the point's span. A point needs the golden run only where
// this run owes a trial (an owned slot not recovered) or where no slot of the
// point was recovered; the golden run walks to the last such point, recording
// only those, and every point past it is proven. A complete shard or merged
// journal therefore resumes without a warm-up. Ownership alone proves nothing:
// a shard that owns no work at a point with no journalled slot still records
// (and so still detects truncation at) the point, which keeps the set of
// journalled points identical across shards and makes the merge's
// gap-free-prefix check sound.
package inject

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/campaignio"
	"repro/internal/obs"
	"repro/internal/protect"
)

// ErrInterrupted is returned by RunUArch/RunVM when the configured Interrupt
// channel fires. In-flight trials are drained and journalled first, so a
// resumed run loses no completed work.
var ErrInterrupted = errors.New("inject: campaign interrupted")

// journalBatch is the number of trial records per fsync. Small enough that an
// interruption loses at most a batch of cheap-to-recompute trials, large
// enough that the fsync cost disappears under the trial cost.
const journalBatch = 64

// fingerprint hashes the canonical form of a campaign's plan-relevant fields.
// The Exec fields are excluded: they never influence results, and a campaign
// journalled serially must resume under any worker count or engine setting.
func fingerprint(canonical string) string {
	h := fnv.New64a()
	h.Write([]byte(canonical))
	return fmt.Sprintf("%016x", h.Sum64())
}

func (c UArchConfig) planString() string {
	// The paper's placement plans as harden=1 with no policy suffix, the
	// spelling it had when it was a protection scheme of its own rather
	// than a policy; every other policy plans as harden=0 plus its
	// fingerprint, and no policy as harden=0 alone. Keeping that spelling
	// keeps the campaign IDs that name existing fig6 campaign directories,
	// and the config hash inside their merged manifests.
	harden, suffix := 0, ""
	if c.Policy != nil {
		if fp := c.Policy.Fingerprint(); fp == protect.LowHangingFruit().Fingerprint() {
			harden = 1
		} else {
			suffix = "|policy=" + fp
		}
	}
	return fmt.Sprintf("uarch|bench=%s|seed=%d|scale=%g|points=%d|tpp=%d|warmup=%d|spread=%d|window=%d|latches=%t|burst=%d|harden=%d|pipe=%+v",
		c.Bench, c.Seed, c.Scale, c.Points, c.TrialsPerPoint,
		c.WarmupCycles, c.SpreadCycles, c.WindowCycles,
		c.LatchesOnly, c.BurstBits, harden, c.pipelineConfig()) + suffix
}

func (c VMConfig) planString() string {
	return fmt.Sprintf("vm|bench=%s|seed=%d|scale=%g|trials=%d|points=%d|warmup=%d|spread=%d|window=%d|low32=%t",
		c.Bench, c.Seed, c.Scale, c.Trials, c.Points,
		c.Warmup, c.Spread, c.Window, c.Low32)
}

// uarchAux is the microarchitectural campaign's manifest aggregate: state
// derived from the pipeline geometry. It is part of the plan identity, so
// shards must agree on it before they merge and a run resumes a directory
// only if it derives the same aggregate.
type uarchAux struct {
	TotalBits   uint64        `json:"total_bits"`
	LatchBits   uint64        `json:"latch_bits"`
	HardenStats protect.Stats `json:"harden_stats"`
}

// validateSharding checks the durability fields shared by both campaign
// types. shardCount == 0 means unsharded (normalised to 1 of 1).
func validateSharding(resumeFrom string, shardIndex, shardCount int) error {
	if shardCount == 0 && shardIndex == 0 {
		return nil
	}
	if shardCount < 1 || shardIndex < 0 || shardIndex >= shardCount {
		return fmt.Errorf("inject: invalid shard %d of %d", shardIndex, shardCount)
	}
	if shardCount > 1 && resumeFrom == "" {
		return fmt.Errorf("inject: a sharded campaign needs a campaign directory (ResumeFrom) to journal into")
	}
	return nil
}

// openJournals tracks every live campaignJournal so an emergency shutdown —
// a process forced to exit while campaigns are still draining — can flush
// the records of already-completed trials without waiting for the drain.
// Entries are registered by openCampaignJournal and removed by finish.
var openJournals sync.Map // *campaignJournal -> struct{}

// FlushJournals fsyncs the buffered records of every open campaign journal.
// It is the emergency half of the interruption protocol: the orderly path
// (Interrupt channel) drains in-flight trials and closes each journal via
// finish, while FlushJournals makes whatever is already journalled durable
// right now, from any goroutine, without stopping the campaigns. Records
// flushed here are exactly the completed trials a resumed run recovers.
// It returns the first flush error, if any.
func FlushJournals() error {
	var first error
	openJournals.Range(func(k, _ any) bool {
		if err := k.(*campaignJournal).w.Flush(); err != nil && first == nil {
			first = err
		}
		return true
	})
	return first
}

// campaignJournal couples a campaignio.Writer with the bookkeeping a running
// campaign needs: which slots were loaded, whether a torn tail was repaired,
// and the first append error (workers journal concurrently; the dispatcher
// surfaces the error after draining). All methods are nil-receiver-safe so
// the engines call them unconditionally.
type campaignJournal struct {
	w       *campaignio.Writer
	resumed int
	torn    bool

	mu  sync.Mutex
	err error
}

// openCampaignJournal opens (or creates) the campaign directory, validates
// its manifest against the live plan, scans the journal — truncating a torn
// tail, failing hard on any other corruption — and returns the journal plus
// the recovered payloads indexed by slot (nil where missing).
func openCampaignJournal(dir string, want campaignio.Manifest) (*campaignJournal, [][]byte, error) {
	if campaignio.HasManifest(dir) {
		have, err := campaignio.ReadManifest(dir)
		if err != nil {
			return nil, nil, err
		}
		if err := want.Resumable(have); err != nil {
			return nil, nil, fmt.Errorf("inject: %s is not resumable by this configuration: %w", dir, err)
		}
	} else if err := campaignio.WriteManifest(dir, want); err != nil {
		return nil, nil, err
	}
	scan, err := campaignio.ScanJournal(dir, want.Slots)
	if err != nil {
		return nil, nil, err
	}
	loaded := make([][]byte, want.Slots)
	distinct := 0
	for _, rec := range scan.Records {
		if !want.Owns(rec.Slot) {
			return nil, nil, fmt.Errorf("inject: %s: %w: slot %d belongs to another shard",
				dir, campaignio.ErrCorrupt, rec.Slot)
		}
		if prev := loaded[rec.Slot]; prev != nil {
			// A slot journalled twice with identical bytes is the benign
			// residue of an interrupted run whose batch re-ran after an
			// older scan; only differing payloads are corruption.
			if !bytes.Equal(prev, rec.Payload) {
				return nil, nil, fmt.Errorf("inject: %s: %w: slot %d recorded twice with differing payloads",
					dir, campaignio.ErrCorrupt, rec.Slot)
			}
			continue
		}
		loaded[rec.Slot] = rec.Payload
		distinct++
	}
	w, err := campaignio.OpenWriter(dir, scan.ValidLen, journalBatch)
	if err != nil {
		return nil, nil, err
	}
	j := &campaignJournal{w: w, resumed: distinct, torn: scan.Torn}
	openJournals.Store(j, struct{}{})
	return j, loaded, nil
}

// record journals one completed trial. Called from worker goroutines as
// trials retire; marshal errors and write errors are captured for the
// dispatcher (the journal is durability bookkeeping — it must never perturb
// the trial results themselves).
func (j *campaignJournal) record(slot int, trial any) {
	if j == nil {
		return
	}
	payload, err := json.Marshal(trial)
	if err == nil {
		err = j.w.Append(slot, payload)
	}
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
}

// finish flushes and closes the journal, emits the durability telemetry, and
// returns the first error encountered anywhere in the journal's life.
func (j *campaignJournal) finish(sink obs.Sink, prefix string) error {
	if j == nil {
		return nil
	}
	openJournals.Delete(j)
	ferr := j.w.Close()
	sink.Counter(prefix + "_resumed_slots_total").Add(int64(j.resumed))
	sink.Counter(prefix + "_journal_flushes_total").Add(j.w.Flushes())
	if j.torn {
		sink.Counter(prefix + "_journal_torn_repairs_total").Inc()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return ferr
}

// interrupted reports whether the campaign's interrupt channel has fired (a
// nil channel never does).
func interrupted(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
