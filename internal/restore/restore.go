// Package restore implements the ReStore architecture — the paper's primary
// contribution: symptom-based soft-error detection layered on checkpoint/
// rollback hardware.
//
// A restore.Processor wraps the detailed pipeline with:
//
//   - periodic architectural checkpoints every Interval instructions, two of
//     which are live at any time, so rollback always reaches at least one
//     full interval into the past (Section 5.2.3);
//   - symptom detectors: ISA exceptions, high-confidence branch
//     mispredictions (via the JRS estimator in the pipeline front end), and
//     watchdog-timer saturation (Sections 3.2.1-3.2.2);
//   - rollback on symptom, with immediate or delayed policy;
//   - an event log of branch outcomes that detects soft errors by
//     comparing the original and redundant executions (Section 3.2.3), and
//     distinguishes genuine exceptions (recur on replay) from fault-induced
//     ones (vanish);
//   - dynamic tuning: when false-positive rollbacks cluster, branch
//     symptoms are temporarily ignored to bound the performance loss
//     (Section 3.2.3).
package restore

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Policy selects when a detected symptom triggers the rollback.
type Policy uint8

// Rollback policies evaluated in Section 5.2.3.
const (
	// PolicyImmediate rolls back as soon as a symptom fires. Several
	// symptoms within one interval can each pay the rollback cost.
	PolicyImmediate Policy = iota + 1
	// PolicyDelayed defers the rollback to the end of the current
	// checkpoint interval, coalescing multiple symptoms into one
	// rollback.
	PolicyDelayed
)

// Config parameterises the ReStore mechanisms. Every symptom detector of
// Section 3 (exceptions, watchdog deadlock, high-confidence branch
// mispredictions) is always on.
type Config struct {
	// Interval is the number of retired instructions between
	// checkpoints (the paper sweeps 25..2000; default 100).
	Interval uint64
	// Checkpoints is the number of live checkpoints (default 2).
	Checkpoints int
	// Policy is the rollback policy (default PolicyImmediate).
	Policy Policy

	// EventLogSize is the branch-outcome log capacity (default 8192).
	EventLogSize int

	// LogLoadValues additionally records committed load values in a load
	// value queue (Section 3.2.3's LVQ) and compares them during replay:
	// a value divergence is a detected soft error even when no branch
	// outcome changed.
	LogLoadValues bool

	// Dynamic tuning (0 disables): if more than TuneLimit rollbacks
	// occur within TuneWindow retired instructions, branch symptoms are
	// muted for TuneCooldown instructions.
	TuneWindow   uint64
	TuneLimit    uint64
	TuneCooldown uint64

	// EnableCacheMissSymptom treats L1 data-cache misses as rollback
	// triggers. Section 3.3 evaluates this candidate and rejects it:
	// misses score well on coverage and latency but are far too common
	// in error-free execution, so enabling this drowns the machine in
	// false-positive rollbacks. It is provided to make that trade-off
	// measurable in the framework.
	EnableCacheMissSymptom bool

	// VerifyDetections enables the paper's optional third execution
	// (Section 3.2.3): when the event log detects a divergence between
	// the original and redundant executions, roll back once more and
	// re-execute; if the third pass agrees with the second, the soft
	// error is confirmed to have corrupted the ORIGINAL execution.
	VerifyDetections bool

	// Obs, if non-nil, receives symptom/rollback telemetry under the
	// restore_* namespace: per-kind symptom counters plus rollback-depth
	// and detection-latency histograms. Write-only: the processor never
	// reads it back, so runs are identical with or without a sink.
	Obs obs.Sink

	// Trace, if non-nil, receives one event per symptom-triggered rollback
	// (named by symptom kind, with cycle/index/depth/latency fields). Like
	// Obs, purely observational.
	Trace *obs.Trace
}

// Validate reports configuration errors that applyDefaults cannot repair.
// Zero values mean "use the default"; negative sizes are contradictions (a
// backwards checkpoint store, a sub-empty event log) and are rejected
// instead of being silently clamped, so a caller that computed a size wrong
// hears about it. (Interval and the tuning windows are unsigned and cannot
// go negative.)
func (c Config) Validate() error {
	if c.Checkpoints < 0 {
		return fmt.Errorf("restore: negative Checkpoints %d", c.Checkpoints)
	}
	if c.EventLogSize < 0 {
		return fmt.Errorf("restore: negative EventLogSize %d", c.EventLogSize)
	}
	if c.Policy != 0 && c.Policy != PolicyImmediate && c.Policy != PolicyDelayed {
		return fmt.Errorf("restore: unknown Policy %d", c.Policy)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.Interval == 0 {
		c.Interval = 100
	}
	if c.Checkpoints == 0 {
		c.Checkpoints = 2
	}
	if c.Policy == 0 {
		c.Policy = PolicyImmediate
	}
	if c.EventLogSize == 0 {
		c.EventLogSize = 8192
	}
}

// ErrorRecord describes one soft error the event log detected (Section
// 3.2.3: "soft errors can be detected and logged").
type ErrorRecord struct {
	// Index is the architectural instruction index of the divergent
	// branch.
	Index uint64
	// PC is the branch whose outcome differed between executions.
	PC uint64
	// OriginalTaken/ReplayTaken are the two recorded outcomes.
	OriginalTaken bool
	ReplayTaken   bool
	// Cycle is the pipeline cycle of the detection.
	Cycle uint64
}

// Report accumulates ReStore activity counters.
type Report struct {
	Retired     uint64 // architectural instructions completed (net of replay)
	Cycles      uint64 // total cycles including re-execution
	Checkpoints uint64
	Rollbacks   uint64

	BranchSymptoms    uint64 // high-confidence mispredict symptoms acted on
	ExceptionSymptoms uint64
	DeadlockSymptoms  uint64
	CacheMissSymptoms uint64 // optional cache-miss symptoms acted on
	MutedSymptoms     uint64 // branch symptoms ignored by dynamic tuning

	DetectedErrors    uint64 // event-log divergences between runs
	VanishedSymptoms  uint64 // exception/deadlock symptoms that did not recur
	FalsePositives    uint64 // branch-symptom rollbacks with clean replays
	GenuineExceptions uint64

	// Third-execution verification outcomes (Section 3.2.3, optional).
	VerifiedDetections uint64 // third pass agreed with the replay: original was corrupt
	ReplayCorruptions  uint64 // third pass disagreed again: the replay itself was hit
}

// Terminal run conditions.
var (
	// ErrGenuineException reports an exception that recurred on replay:
	// a real program fault the OS must handle, not a soft error.
	ErrGenuineException = errors.New("restore: genuine exception")
	// ErrUnrecoverable reports a deadlock that recurred after rollback.
	ErrUnrecoverable = errors.New("restore: unrecoverable deadlock")
	// ErrCycleBudget reports that the run hit its cycle budget before
	// retiring the requested instructions.
	ErrCycleBudget = errors.New("restore: cycle budget exhausted")
)

// Processor is a pipeline wrapped with the ReStore mechanisms.
type Processor struct {
	pipe  *pipeline.Pipeline
	store *checkpoint.Store
	cfg   Config
	log   *EventLog
	lvq   *LoadValueQueue

	report Report

	// archIndex counts architecturally completed instructions: it rewinds
	// on rollback (unlike the pipeline's raw retirement counter).
	archIndex     uint64
	lastNextPC    uint64
	sinceCP       uint64
	pendingBranch bool // symptom awaiting rollback
	pendingMiss   bool // cache-miss symptom awaiting rollback
	halted        bool

	// Replay bookkeeping.
	replayUntil   uint64 // archIndex the replay must pass; 0 = not replaying
	replaying     bool
	divergence    bool
	branchCause   bool // current replay was triggered by a branch symptom
	pendingVerify bool // event-log divergence awaiting a third execution
	verifying     bool // currently in the third execution

	// Recurring-symptom detection.
	excArmed bool
	excPC    uint64
	excIdx   uint64
	dlArmed  bool
	dlIdx    uint64

	// Dynamic tuning.
	muteUntil   uint64
	windowStart uint64
	windowCount uint64

	errorLog []ErrorRecord
}

// New wraps a pipeline. The pipeline must be freshly positioned at an
// architecturally clean point (its in-flight state is absorbed into the
// first checkpoint). An invalid configuration (Config.Validate) is a
// programming error and panics; call Validate first to handle it as data.
func New(pipe *pipeline.Pipeline, cfg Config) *Processor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.applyDefaults()
	p := &Processor{
		pipe:       pipe,
		store:      checkpoint.NewStore(pipe.Memory(), cfg.Checkpoints),
		cfg:        cfg,
		log:        NewEventLog(cfg.EventLogSize),
		lastNextPC: pipe.CommitPC(),
	}
	if cfg.LogLoadValues {
		p.lvq = NewLoadValueQueue(cfg.EventLogSize)
	}
	p.pipe.CommitHook = p.onCommit
	p.pipe.BranchHook = p.onBranch
	if cfg.EnableCacheMissSymptom {
		p.pipe.MissHook = p.onCacheMiss
	}
	if cfg.Obs != nil {
		// The wrapped pipeline reports its per-stage counters into the
		// same sink as the ReStore symptom telemetry.
		p.pipe.AttachObs(cfg.Obs, "pipeline")
	}
	p.createCheckpoint()
	return p
}

// Pipeline exposes the wrapped pipeline (for state injection in campaigns
// and examples).
func (p *Processor) Pipeline() *pipeline.Pipeline { return p.pipe }

// Report returns a copy of the activity counters.
func (p *Processor) Report() Report {
	r := p.report
	r.Retired = p.archIndex
	r.Cycles = p.pipe.Cycles()
	return r
}

// ErrorLog returns the detected-error records accumulated so far (a copy).
func (p *Processor) ErrorLog() []ErrorRecord {
	return append([]ErrorRecord(nil), p.errorLog...)
}

func (p *Processor) createCheckpoint() {
	p.store.Create(p.pipe.ArchRegs(), p.lastNextPC, p.archIndex)
	p.report.Checkpoints++
	p.sinceCP = 0
}

// onCommit runs inside the pipeline's commit stage for every retired
// instruction.
func (p *Processor) onCommit(ev pipeline.CommitEvent) {
	if ev.Exception != arch.ExcNone {
		return // handled via pipeline status after the cycle
	}
	p.archIndex++
	p.lastNextPC = ev.Target
	p.sinceCP++
	if ev.Halted {
		p.halted = true
		return
	}

	if ev.IsBranch {
		rec := BranchRecord{Index: p.archIndex - 1, PC: ev.PC, Taken: ev.Taken, Target: ev.Target}
		if p.replaying && !p.divergence {
			if prev, ok := p.log.Lookup(rec.Index); ok && !prev.Equal(rec) {
				// The original and redundant executions disagree:
				// a soft error corrupted one of them (Section
				// 3.2.3's detection mechanism).
				p.report.DetectedErrors++
				p.divergence = true
				p.errorLog = append(p.errorLog, ErrorRecord{
					Index:         rec.Index,
					PC:            rec.PC,
					OriginalTaken: prev.Taken,
					ReplayTaken:   rec.Taken,
					Cycle:         p.pipe.Cycles(),
				})
			}
		}
		p.log.Append(rec)
	}

	if ev.IsLoad && p.lvq != nil {
		rec := LoadRecord{Index: p.archIndex - 1, Addr: ev.MemAddr, Value: ev.DestVal}
		if p.replaying && !p.divergence {
			if prev, ok := p.lvq.Lookup(rec.Index); ok && prev != rec {
				// The same dynamic load produced a different value:
				// a soft error corrupted data without disturbing
				// control flow. Only the LVQ can see this.
				p.report.DetectedErrors++
				p.divergence = true
				p.errorLog = append(p.errorLog, ErrorRecord{
					Index: rec.Index,
					PC:    ev.PC,
					Cycle: p.pipe.Cycles(),
				})
			}
		}
		p.lvq.Append(rec)
	}

	if p.replaying && p.archIndex >= p.replayUntil {
		p.finishReplay()
	}

	if p.sinceCP >= p.cfg.Interval {
		if (p.pendingBranch || p.pendingMiss) && p.cfg.Policy == PolicyDelayed {
			return // rollback happens after this cycle, not a checkpoint
		}
		p.createCheckpoint()
	}
}

func (p *Processor) finishReplay() {
	p.replaying = false
	p.replayUntil = 0
	diverged := p.divergence
	p.divergence = false

	if p.verifying {
		// This pass was the optional third execution. Agreement with
		// the (logged) second pass confirms the original execution
		// was the corrupted one; another disagreement means the
		// replay itself was struck.
		p.verifying = false
		if diverged {
			p.report.ReplayCorruptions++
		} else {
			p.report.VerifiedDetections++
		}
		p.branchCause = false
		return
	}

	if p.branchCause && !diverged {
		// The redundant execution reproduced the original exactly:
		// the high-confidence misprediction was a real misprediction,
		// not a soft error. The rollback cost was wasted.
		p.report.FalsePositives++
	}
	p.branchCause = false
	if diverged && p.cfg.VerifyDetections {
		p.pendingVerify = true
	}
	if p.excArmed && p.archIndex > p.excIdx {
		// The exception did not recur: it was fault-induced and is now
		// recovered.
		p.report.VanishedSymptoms++
		p.excArmed = false
	}
	if p.dlArmed && p.archIndex > p.dlIdx {
		p.report.VanishedSymptoms++
		p.dlArmed = false
	}
}

// onBranch observes branch resolutions for the high-confidence-misprediction
// symptom.
func (p *Processor) onBranch(ev pipeline.BranchEvent) {
	if !ev.Symptom() {
		return
	}
	if p.replaying {
		// The event log supplies known-good outcomes during
		// re-execution; mispredictions there are expected noise, not
		// fresh symptoms (Section 5.2.3 models replay with perfect
		// prediction).
		return
	}
	if p.muted() {
		p.report.MutedSymptoms++
		return
	}
	p.pendingBranch = true
}

// onCacheMiss treats a data-cache miss as a symptom when enabled. Misses
// share the branch symptom's muting and replay suppression.
func (p *Processor) onCacheMiss(uint64) {
	if p.replaying {
		return
	}
	if p.muted() {
		p.report.MutedSymptoms++
		return
	}
	p.pendingMiss = true
}

func (p *Processor) muted() bool {
	return p.cfg.TuneWindow > 0 && p.archIndex < p.muteUntil
}

func (p *Processor) noteRollbackForTuning() {
	if p.cfg.TuneWindow == 0 {
		return
	}
	if p.archIndex-p.windowStart > p.cfg.TuneWindow {
		p.windowStart = p.archIndex
		p.windowCount = 0
	}
	p.windowCount++
	if p.windowCount > p.cfg.TuneLimit {
		p.muteUntil = p.archIndex + p.cfg.TuneCooldown
		p.windowCount = 0
		p.windowStart = p.archIndex
	}
}

// rollback restores the oldest checkpoint and enters replay mode up to the
// given architectural index. kind names the triggering symptom for
// telemetry ("branch", "cache_miss", "exception", "deadlock", "verify").
func (p *Processor) rollback(symptomIdx uint64, branchCause bool, kind string) error {
	// Detection latency proxy: how far past the restored-to region the
	// machine had run when the symptom fired (instructions since the last
	// checkpoint was taken). Captured before the counters reset.
	latency := p.sinceCP
	cp, err := p.store.RestoreOldest()
	if err != nil {
		return fmt.Errorf("rollback without checkpoint: %w", err)
	}
	p.pipe.Reset(cp.Regs, cp.PC)
	p.archIndex = cp.Retired
	p.lastNextPC = cp.PC
	p.report.Rollbacks++
	p.pendingBranch = false
	p.replaying = true
	p.divergence = false
	p.branchCause = branchCause
	if symptomIdx < cp.Retired {
		symptomIdx = cp.Retired
	}
	p.replayUntil = symptomIdx + 1
	// Re-anchor a checkpoint at the restore point so a repeated symptom
	// can roll back again.
	p.store.Create(cp.Regs, cp.PC, cp.Retired)
	p.report.Checkpoints++
	p.sinceCP = 0
	p.noteRollbackForTuning()
	p.noteRollbackObs(kind, symptomIdx, p.replayUntil-cp.Retired, latency)
	return nil
}

// noteRollbackObs emits the write-only telemetry for one rollback. Every
// handle is nil-safe, so without a sink/trace this is a handful of nil
// checks and nothing more.
func (p *Processor) noteRollbackObs(kind string, symptomIdx, depth, latency uint64) {
	sink := p.cfg.Obs
	sink.Counter("restore_rollbacks_total").Inc()
	sink.Counter("restore_symptom_" + kind + "_total").Inc()
	sink.Hist("restore_rollback_depth_insts").Observe(int64(depth))
	sink.Hist("restore_detection_latency_insts").Observe(int64(latency))
	p.cfg.Trace.Emit(kind,
		obs.F("cycle", int64(p.pipe.Cycles())),
		obs.F("index", int64(symptomIdx)),
		obs.F("depth", int64(depth)),
		obs.F("latency", int64(latency)),
	)
}

// Run executes until n architectural instructions have been retired (net of
// replays), the program halts, the cycle budget is exhausted, or a genuine
// exception/deadlock terminates execution. It returns the final report.
func (p *Processor) Run(n, maxCycles uint64) (Report, error) {
	budget := p.pipe.Cycles() + maxCycles
	for p.archIndex < n && !p.halted {
		if p.pipe.Cycles() >= budget {
			return p.Report(), ErrCycleBudget
		}
		p.pipe.Cycle()

		switch p.pipe.Status() {
		case pipeline.StatusRunning:
			if p.pendingVerify {
				p.pendingVerify = false
				p.verifying = true
				if err := p.rollback(p.archIndex, false, "verify"); err != nil {
					return p.Report(), err
				}
				continue
			}
			pending := p.pendingBranch || p.pendingMiss
			immediate := pending && p.cfg.Policy == PolicyImmediate
			// Delayed policy: hold the symptom until the interval
			// boundary, coalescing repeats into one rollback.
			delayed := pending && p.cfg.Policy == PolicyDelayed &&
				p.sinceCP >= p.cfg.Interval
			if immediate || delayed {
				kind := "cache_miss"
				if p.pendingBranch {
					p.report.BranchSymptoms++
					kind = "branch"
				}
				if p.pendingMiss {
					p.report.CacheMissSymptoms++
					p.pendingMiss = false
				}
				if err := p.rollback(p.archIndex, p.pendingBranch, kind); err != nil {
					return p.Report(), err
				}
			}

		case pipeline.StatusHalted:
			p.halted = true

		case pipeline.StatusExcepted:
			kind, pc, _ := p.pipe.Exception()
			if p.excArmed && p.excPC == pc && p.archIndex == p.excIdx {
				// Recurred at the same architectural point: the
				// exception is genuine (Section 3.2.1).
				p.report.GenuineExceptions++
				return p.Report(), fmt.Errorf("%w: %v at %#x", ErrGenuineException, kind, pc)
			}
			p.report.ExceptionSymptoms++
			p.excArmed = true
			p.excPC = pc
			p.excIdx = p.archIndex
			if err := p.rollback(p.archIndex, false, "exception"); err != nil {
				return p.Report(), err
			}

		case pipeline.StatusDeadlocked:
			if p.dlArmed && p.archIndex == p.dlIdx {
				return p.Report(), ErrUnrecoverable
			}
			p.report.DeadlockSymptoms++
			p.dlArmed = true
			p.dlIdx = p.archIndex
			if err := p.rollback(p.archIndex, false, "deadlock"); err != nil {
				return p.Report(), err
			}
		}
	}
	return p.Report(), nil
}
