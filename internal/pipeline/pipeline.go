package pipeline

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/predictor"
)

// Pipeline is one instance of the processor model. It owns its memory image
// and all microarchitectural state. It is not safe for concurrent use.
type Pipeline struct {
	cfg Config
	mem *mem.Memory

	// Injectable state (registered in space).
	fq          fetchQueue
	rob         reorderBuffer
	sched       scheduler
	stq         storeQueue
	ldq         loadQueue
	prf         regFile
	specRAT     aliasTable
	archRAT     aliasTable
	free        freeList
	exec        execWindow
	fetchPC     uint64
	watchdog    uint64
	specHist    uint64 // fetch-time speculative global branch history
	retiredHist uint64 // committed global branch history

	space StateSpace

	// dcache, when set, memoises isa.Decode over the workload's static
	// code image. It is not machine state: campaigns build it once and
	// share it read-only across the clone pool and parallel workers, and
	// lookups verify the fetched word so corrupted fetches fall back to a
	// real decode. Nil means decode every word (the pre-cache behaviour).
	dcache *isa.DecodeCache

	// Prediction and caches (excluded from injection, Section 4.2).
	dir    *predictor.Combined
	btb    *predictor.BTB
	ras    *predictor.RAS
	conf   predictor.ConfidenceEstimator
	memdep *predictor.MemDep
	l1i    *cache.Cache
	l1d    *cache.Cache
	l2     *cache.Cache
	itlb   *cache.Cache
	dtlb   *cache.Cache

	// Simulator bookkeeping (deterministic, not hardware state).
	cycle           uint64 //restorelint:ignore stateregister -- cycle counter, not a latch
	status          Status
	excKind         arch.ExceptionKind
	excPC           uint64 //restorelint:ignore stateregister -- exception report, written at halt
	excAddr         uint64 //restorelint:ignore stateregister -- exception report, written at halt
	fetchStallUntil uint64 //restorelint:ignore stateregister -- timing bookkeeping, not a latch
	fetchFaulted    bool
	stats           Stats

	// issueScratch avoids per-cycle allocation in the selection loop: a
	// fixed array sized by the scheduler (at most SchedSize candidates per
	// cycle), sorted in place, so steady-state Cycle stays heap-free.
	issueScratch [SchedSize]issueCand
	issueCount   int

	// obsM holds write-only telemetry (see metrics.go); nil when detached.
	// Like the hooks below, it is not machine state and is not copied by
	// Clone/ResetFrom.
	obsM *pipeMetrics

	// CommitHook observes every retired instruction (and the exception
	// pseudo-retirement). Used by golden-lockstep comparison, event logs
	// and the ReStore controller.
	CommitHook func(CommitEvent)
	// BranchHook observes every branch resolution in the execution core.
	BranchHook func(BranchEvent)
	// MissHook observes every L1 data-cache miss at load issue. It exists
	// so candidate symptoms beyond the paper's chosen two can be plugged
	// into the ReStore framework (Section 3.3 evaluates cache misses as
	// a candidate — and rejects them for their false-positive rate).
	MissHook func(addr uint64)
}

type issueCand struct {
	slot int
	pos  uint64
}

// New builds a pipeline over the given memory image starting at entry.
func New(cfg Config, m *mem.Memory, entry uint64) (*Pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:    cfg,
		mem:    m,
		dir:    predictor.NewCombined(cfg.PredictorBits),
		btb:    predictor.NewBTB(cfg.BTBSetBits, cfg.BTBWays),
		ras:    predictor.NewRAS(cfg.RASDepth),
		memdep: newMemDep(cfg),
		l1i:    cache.New(cfg.L1I),
		l1d:    cache.New(cfg.L1D),
		l2:     cache.New(cfg.L2),
		itlb:   cache.New(cfg.ITLB),
		dtlb:   cache.New(cfg.DTLB),
		status: StatusRunning,
	}
	switch cfg.Confidence {
	case ConfidenceJRS:
		p.conf = predictor.NewJRS(cfg.JRS)
	case ConfidencePerfect:
		p.conf = predictor.Perfect{}
	}
	p.registerState()
	p.initArchState([32]uint64{}, entry)
	return p, nil
}

func newMemDep(cfg Config) *predictor.MemDep {
	if !cfg.MemDepSpeculation {
		return nil
	}
	return predictor.NewMemDep(cfg.MemDepBits)
}

func (p *Pipeline) registerState() {
	p.space = StateSpace{}
	p.fq.register(&p.space)
	p.rob.register(&p.space)
	p.sched.register(&p.space)
	p.stq.register(&p.space)
	p.ldq.register(&p.space)
	p.prf.register(&p.space)
	p.specRAT.register(&p.space, "specRAT")
	p.archRAT.register(&p.space, "archRAT")
	p.free.register(&p.space)
	p.exec.register(&p.space)
	p.space.Register("fetchPC", KindLatch, ClassControl, &p.fetchPC, 48)
	p.space.Register("watchdog", KindLatch, ClassControl, &p.watchdog, 16)
	p.space.Register("specHist", KindLatch, ClassControl, &p.specHist, int(p.cfg.HistoryBits))
	p.space.Register("retiredHist", KindLatch, ClassControl, &p.retiredHist, int(p.cfg.HistoryBits))
}

// initArchState installs architectural register values and a fetch PC into
// an empty machine: identity-mapped RAT over physical registers 0..31, the
// rest free.
func (p *Pipeline) initArchState(regs [32]uint64, pc uint64) {
	p.fq.reset()
	p.rob.reset()
	p.sched.reset()
	p.stq.reset()
	p.ldq.reset()
	p.exec.reset()
	for i := uint64(0); i < 32; i++ {
		p.specRAT.set(i, i)
		p.archRAT.set(i, i)
		p.prf.write(i, regs[i])
		p.prf.setReady(i, true)
	}
	p.prf.write(31, 0) // architectural zero
	for i := uint64(32); i < PhysRegs; i++ {
		p.free.free(i)
		p.prf.setReady(i, true)
	}
	p.fetchPC = pc
	p.watchdog = 0
	p.specHist = 0
	p.retiredHist = 0
	p.fetchFaulted = false
	p.fetchStallUntil = 0
	p.status = StatusRunning
	p.excKind = arch.ExcNone
}

// Reset re-initialises the pipeline to the given architectural state,
// clearing all in-flight work. This is the checkpoint-restore entry point:
// ReStore rolls back by resetting the machine to checkpointed registers and
// a checkpointed PC after memory has been unwound.
func (p *Pipeline) Reset(regs [32]uint64, pc uint64) {
	p.free.reset()
	p.initArchState(regs, pc)
}

// Status returns the machine's run state.
func (p *Pipeline) Status() Status { return p.status }

// Exception returns the exception that stopped the pipeline, with the
// faulting PC and address.
func (p *Pipeline) Exception() (arch.ExceptionKind, uint64, uint64) {
	return p.excKind, p.excPC, p.excAddr
}

// State exposes the injectable state space.
func (p *Pipeline) State() *StateSpace { return &p.space }

// SetDecodeCache installs (or, with nil, removes) a shared pre-decoded
// instruction cache. Clones inherit the pointer; the cache is immutable and
// safe to share across goroutines.
func (p *Pipeline) SetDecodeCache(d *isa.DecodeCache) { p.dcache = d }

// decode turns a fetched instruction word into an Inst, consulting the
// decode cache first. The cache hits only when the word at pc still matches
// the cached image, so fault-corrupted words and wild PCs decode afresh and
// behave exactly as without the cache.
func (p *Pipeline) decode(pc uint64, word uint32) isa.Inst {
	if p.dcache != nil {
		if inst, ok := p.dcache.Lookup(pc, word); ok {
			return inst
		}
	}
	return isa.Decode(word)
}

// Stats returns a copy of the counters.
func (p *Pipeline) Stats() Stats {
	s := p.stats
	s.Cycles = p.cycle
	return s
}

// Cycles returns the elapsed cycle count.
func (p *Pipeline) Cycles() uint64 { return p.cycle }

// Retired returns the number of retired instructions.
func (p *Pipeline) Retired() uint64 { return p.stats.Retired }

// Memory returns the pipeline's memory image.
func (p *Pipeline) Memory() *mem.Memory { return p.mem }

// ArchReg reads the committed architectural value of register r.
func (p *Pipeline) ArchReg(r isa.Reg) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return p.prf.read(p.archRAT.get(uint64(r)))
}

// ArchRegs returns all 32 committed architectural register values.
func (p *Pipeline) ArchRegs() [32]uint64 {
	var out [32]uint64
	for i := 0; i < 32; i++ {
		out[i] = p.ArchReg(isa.Reg(i))
	}
	out[31] = 0
	return out
}

// CorruptArchReg flips the given bit of the physical register currently
// mapped to architectural register r — the Figure 2 fault model ("single
// bit flip in the result of an instruction") applied to live machine state.
// Used by examples and directed tests; statistical campaigns sample the
// whole state space instead.
func (p *Pipeline) CorruptArchReg(r isa.Reg, bit uint) {
	p.prf.flipBit(p.archRAT.get(uint64(r)), bit)
}

// MarkAccess makes the pipeline add to *m every access unit it reads or
// writes from now on; nil turns marking off. Every access counts; execute
// reads only the sources an instruction has. Marking changes nothing the
// machine computes, and Clone and ResetFrom leave it off.
func (p *Pipeline) MarkAccess(m *AccessMask) {
	p.prf.touched, p.exec.touched, p.sched.touched = m, m, m
}

// AccessUnit returns the access unit that holds state bit ref; ok is false
// for a bit outside every unit.
func (p *Pipeline) AccessUnit(ref BitRef) (unit uint64, ok bool) {
	if u, ok := p.prf.unit(ref); ok {
		return u, true
	}
	if u, ok := p.exec.unit(ref.Elem); ok {
		return u, true
	}
	return p.sched.unit(ref.Elem)
}

// CommitPC returns the PC of the next instruction to retire (the precise
// architectural PC): the ROB head if work is in flight, else the fetch PC.
func (p *Pipeline) CommitPC() uint64 {
	if p.rob.count > 0 {
		return p.rob.pc[p.rob.head%ROBSize]
	}
	return p.fetchPC
}

// Clone deep-copies the pipeline, its memory image, caches and predictors.
// Fault-injection campaigns warm a pipeline to an injection point once and
// fork a clone per trial. The copy starts as a struct copy, so every field is
// carried by construction; it then gets empty components and its own packed
// state backing, and ResetFrom re-images them from p. Hooks and access
// marking are not copied.
func (p *Pipeline) Clone() *Pipeline {
	n := new(Pipeline)
	*n = *p
	n.mem = mem.New()
	n.dir, n.btb, n.ras = new(predictor.Combined), new(predictor.BTB), new(predictor.RAS)
	if _, ok := p.conf.(*predictor.JRS); ok {
		n.conf = new(predictor.JRS)
	}
	if p.memdep != nil {
		n.memdep = new(predictor.MemDep)
	}
	n.l1i, n.l1d, n.l2, n.itlb, n.dtlb = new(cache.Cache), new(cache.Cache), new(cache.Cache), new(cache.Cache), new(cache.Cache)
	n.registerState() // rebind the copy's slices onto its own packed backing
	n.ResetFrom(p)
	return n
}

// ResetFrom makes p a bit-identical fork of src — the same machine state a
// fresh src.Clone() would carry — while reusing p's existing allocations
// (memory pages, cache and predictor tables, the registered state space).
// p must have been built from the same Config as src (e.g. it is an earlier
// Clone of the same master); ResetFrom panics otherwise. The per-trial clone
// pool in fault-injection campaigns depends on that to recycle one pipeline
// across thousands of trials instead of allocating each from scratch. Hooks
// and access marking are cleared, as in Clone.
//
// ResetFrom is the clone pool's re-image path, annotated hot: once the pool
// reaches steady state (every clone shaped like the master) it must not
// allocate.
//
//restorelint:hotpath
func (p *Pipeline) ResetFrom(src *Pipeline) {
	if p.cfg != src.cfg {
		panic("pipeline: ResetFrom across configurations")
	}
	p.space.copyPackedFrom(&src.space)
	p.dcache = src.dcache
	p.fq.copyFrom(&src.fq)
	p.rob.copyFrom(&src.rob)
	p.stq.copyFrom(&src.stq)
	p.ldq.copyFrom(&src.ldq)
	p.exec.copyFrom(&src.exec)
	p.fetchPC = src.fetchPC
	p.watchdog = src.watchdog
	p.specHist = src.specHist
	p.retiredHist = src.retiredHist

	p.cycle = src.cycle
	p.status = src.status
	p.excKind = src.excKind
	p.excPC = src.excPC
	p.excAddr = src.excAddr
	p.fetchStallUntil = src.fetchStallUntil
	p.fetchFaulted = src.fetchFaulted
	p.stats = src.stats

	p.mem.CopyFrom(src.mem)
	p.dir.CopyFrom(src.dir)
	p.btb.CopyFrom(src.btb)
	p.ras.CopyFrom(src.ras)
	if j, ok := p.conf.(*predictor.JRS); ok {
		j.CopyFrom(src.conf.(*predictor.JRS)) // CopyFrom detaches the history source
	}
	if p.memdep != nil {
		p.memdep.CopyFrom(src.memdep)
	}
	p.l1i.CopyFrom(src.l1i)
	p.l1d.CopyFrom(src.l1d)
	p.l2.CopyFrom(src.l2)
	p.itlb.CopyFrom(src.itlb)
	p.dtlb.CopyFrom(src.dtlb)

	p.CommitHook = nil
	p.BranchHook = nil
	p.MissHook = nil
	p.obsM = nil
	p.MarkAccess(nil)
}

// Step advances the machine by one clock. It is the campaign engine's trial
// inner loop — a microarchitectural trial calls it millions of times — and
// is therefore annotated as a hot path: restorelint's hotpathalloc analyzer
// proves it transitively allocation-free in steady state, and an
// AllocsPerRun test pins the same property dynamically.
//
//restorelint:hotpath
func (p *Pipeline) Step() { p.Cycle() }

// Cycle advances the machine by one clock. Stages run in reverse order so
// that results become visible to younger instructions one cycle later, as
// in hardware.
func (p *Pipeline) Cycle() {
	if p.status != StatusRunning {
		return
	}
	p.cycle++
	p.doCommit()
	if p.status == StatusRunning {
		p.doWriteback()
		p.doIssue()
		p.doRename()
		p.doFetch()

		p.watchdog++
		if p.watchdog >= p.cfg.WatchdogCycles {
			p.status = StatusDeadlocked
		}
		if p.memdep != nil && p.cycle%p.cfg.MemDepDecayCycles == 0 {
			p.memdep.Decay()
		}
	}
	if p.obsM != nil {
		p.obsM.sample(p)
	}
}

// RunCycles advances up to n cycles, stopping early if the machine leaves
// the running state. It returns the cycles actually executed.
func (p *Pipeline) RunCycles(n uint64) uint64 {
	start := p.cycle
	for i := uint64(0); i < n && p.status == StatusRunning; i++ {
		p.Cycle()
	}
	return p.cycle - start
}

// RunRetired advances until the retired-instruction count increases by at
// least n, the cycle budget is exhausted, or the machine stops. It returns
// the instructions retired.
func (p *Pipeline) RunRetired(n, maxCycles uint64) uint64 {
	start := p.stats.Retired
	budget := p.cycle + maxCycles
	for p.status == StatusRunning && p.stats.Retired-start < n && p.cycle < budget {
		p.Cycle()
	}
	return p.stats.Retired - start
}

// ---------------------------------------------------------------------------
// Commit

func (p *Pipeline) doCommit() {
	for n := 0; n < CommitWidth; n++ {
		if p.rob.count == 0 {
			return
		}
		idx := p.rob.head % ROBSize
		flags := p.rob.flags[idx]
		if flags&robValid == 0 || flags&robCompleted == 0 {
			// Head not ready (or corrupted into invalidity: the
			// watchdog will eventually fire).
			return
		}

		ev := CommitEvent{
			Cycle: p.cycle,
			Index: p.stats.Retired,
			PC:    p.rob.pc[idx],
			Inst:  unpackCtl(p.rob.ctl[idx]),
		}

		if flags&robExcValid != 0 {
			kind := arch.ExceptionKind((flags >> robExcShift) & 7)
			if kind == arch.ExcNone {
				kind = arch.ExcAccessFault // corrupted kind field
			}
			ev.Exception = kind
			ev.ExcAddr = p.rob.result[idx]
			p.status = StatusExcepted
			p.excKind = kind
			p.excPC = ev.PC
			p.excAddr = ev.ExcAddr
			p.fire(ev)
			return
		}

		if flags&robHalt != 0 {
			ev.Halted = true
			ev.Target = ev.PC
			p.status = StatusHalted
			p.retire(idx)
			p.fire(ev)
			return
		}

		ev.Target = p.rob.result[idx]

		if flags&robIsStore != 0 {
			if !p.commitStore(idx, &ev) {
				return // store raised a late exception this cycle
			}
		}
		if flags&robHasDest != 0 {
			ev.HasDest = true
			ev.DestArch = isa.Reg(p.rob.archDest[idx] % 32)
			ev.DestVal = p.prf.read(p.rob.physDest[idx])
			p.archRAT.set(p.rob.archDest[idx], p.rob.physDest[idx])
			p.free.free(p.rob.oldPhys[idx])
		}
		if flags&robIsLoad != 0 {
			ev.IsLoad = true
			ev.MemAddr = p.rob.result[idx]
			// For loads the committed next-PC is sequential.
			ev.Target = ev.PC + isa.InstBytes
			// Drain the LDQ head.
			h := p.ldq.head % LDQSize
			p.ldq.flags[h] = 0
			p.ldq.head = (p.ldq.head + 1) % LDQSize
			if p.ldq.count > 0 {
				p.ldq.count--
			}
		}
		if flags&robIsBranch != 0 {
			ev.IsBranch = true
			ev.Taken = flags&robActTaken != 0
			p.trainBranch(idx, flags)
		} else if flags&robIsLoad == 0 && flags&robIsStore == 0 {
			ev.Target = ev.PC + isa.InstBytes
		}

		p.retire(idx)
		p.fire(ev)
	}
}

// retire pops the ROB head and resets the watchdog.
func (p *Pipeline) retire(idx uint64) {
	p.rob.flags[idx] = 0
	p.rob.head = (p.rob.head + 1) % ROBSize
	p.rob.count--
	p.watchdog = 0
	p.stats.Retired++
}

// commitStore drains the STQ head into memory. It returns false if the
// store turns out to fault at commit time (the exception is raised through
// the normal path next cycle).
func (p *Pipeline) commitStore(idx uint64, ev *CommitEvent) bool {
	ev.IsStore = true
	ev.Target = ev.PC + isa.InstBytes
	h := p.stq.head % STQSize
	sf := p.stq.flags[h]
	addr, data := p.stq.addr[h], p.stq.data[h]
	ev.MemAddr = addr
	ev.StoreVal = data
	ev.StoreSize = 8
	isSTL := sf&stqIsSTL != 0
	if isSTL {
		ev.StoreSize = 4
		ev.StoreVal = uint64(uint32(data))
	}

	var err error
	if isSTL {
		err = p.mem.WriteL(addr, uint32(data))
	} else {
		err = p.mem.WriteQ(addr, data)
	}
	if err != nil {
		// The STQ entry was corrupted into a faulting address after
		// issue-time checks passed: convert to a commit-time
		// exception on this instruction.
		p.rob.flags[idx] |= robExcValid |
			uint64(memExcKind(err))<<robExcShift
		p.rob.result[idx] = addr
		return false
	}
	p.stq.flags[h] = 0
	p.stq.head = (p.stq.head + 1) % STQSize
	if p.stq.count > 0 {
		p.stq.count--
	}
	p.stats.StoresRetired++
	return true
}

// trainBranch updates predictors with the committed outcome.
func (p *Pipeline) trainBranch(idx, flags uint64) {
	pc := p.rob.pc[idx]
	taken := flags&robActTaken != 0
	target := p.rob.result[idx]
	p.stats.Branches++
	if flags&robIsCond != 0 {
		p.stats.CondBranches++
		hist := (flags >> robHistShift) & p.histMask()
		p.dir.UpdateH(pc, taken, hist)
		p.retiredHist = p.shiftHist(p.retiredHist, taken)
		correct := (flags&robPredTaken != 0) == taken
		if !correct {
			p.stats.CommittedCondMispredicts++
		}
		p.conf.Update(pc, correct)
	}
	if taken {
		p.btb.Update(pc, target)
	}
}

func (p *Pipeline) fire(ev CommitEvent) {
	if p.CommitHook != nil {
		p.CommitHook(ev)
	}
}

// histMask returns the mask for the global-history register width.
func (p *Pipeline) histMask() uint64 { return 1<<p.cfg.HistoryBits - 1 }

// shiftHist shifts a branch outcome into a history register.
func (p *Pipeline) shiftHist(hist uint64, taken bool) uint64 {
	hist <<= 1
	if taken {
		hist |= 1
	}
	return hist & p.histMask()
}

func memExcKind(err error) arch.ExceptionKind {
	if f, ok := err.(*mem.Fault); ok && f.Kind == mem.FaultAlign {
		return arch.ExcAlignment
	}
	return arch.ExcAccessFault
}
