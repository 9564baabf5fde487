package pipeline

import (
	"math/bits"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
)

// ---------------------------------------------------------------------------
// Writeback: completed execution-window slots broadcast their results — the
// value goes to the physical register file, the ready bit wakes dependents,
// and the ROB entry is marked complete.

func (p *Pipeline) doWriteback() {
	for i := range p.exec.busy {
		if !p.exec.busy[i] || p.exec.doneAt[i] > p.cycle {
			continue
		}
		val, tag, robIdx := p.exec.drain(i)
		if tag&execNoDest == 0 {
			phys := tag % PhysRegs
			p.prf.write(phys, val)
			p.prf.setReady(phys, true)
		}
		robIdx %= ROBSize
		if p.rob.flags[robIdx]&robValid != 0 {
			p.rob.flags[robIdx] |= robCompleted
		}
	}
}

// ---------------------------------------------------------------------------
// Issue: select ready scheduler entries oldest-first and execute them on the
// available ports (3 ALU — one of which multiplies — 1 branch, 2 AGEN).

func (p *Pipeline) doIssue() {
	// The candidate list lives in a fixed array sized by the scheduler and
	// is insertion-sorted in place: sort.Slice's func value forced a heap
	// allocation every cycle, which dominated campaign allocation profiles
	// (hundreds of thousands of objects per campaign).
	p.issueCount = 0
	for ready := p.sched.wakeup(&p.prf); ready != 0; ready &= ready - 1 {
		i := bits.TrailingZeros64(ready)
		p.issueScratch[p.issueCount] = issueCand{
			slot: i,
			pos:  p.rob.pos(p.sched.robOf(i)),
		}
		p.issueCount++
	}
	// Insertion sort, oldest (lowest ROB position) first; ties broken by
	// slot so simulation stays deterministic even under corrupted state,
	// where equal positions can occur. At most SchedSize elements, mostly
	// ordered already — cheaper than a general sort and allocation-free.
	for i := 1; i < p.issueCount; i++ {
		c := p.issueScratch[i]
		j := i - 1
		for j >= 0 && (p.issueScratch[j].pos > c.pos ||
			(p.issueScratch[j].pos == c.pos && p.issueScratch[j].slot > c.slot)) {
			p.issueScratch[j+1] = p.issueScratch[j]
			j--
		}
		p.issueScratch[j+1] = c
	}

	alu, br, agen := ALUPorts, BranchPorts, AGENPorts
	issued := 0
	for _, cand := range p.issueScratch[:p.issueCount] {
		if issued >= IssueWidth {
			break
		}
		f := p.sched.flags[cand.slot]
		switch {
		case f&schIsBr != 0:
			if br == 0 {
				continue
			}
		case f&schIsLoad != 0 || f&schIsStore != 0:
			if agen == 0 {
				continue
			}
		default:
			if alu == 0 {
				continue
			}
		}

		ok, redirected := p.execute(cand.slot)
		if !ok {
			continue // load blocked on disambiguation; retry next cycle
		}
		issued++
		p.stats.Issued++
		switch {
		case f&schIsBr != 0:
			br--
		case f&schIsLoad != 0 || f&schIsStore != 0:
			agen--
		default:
			alu--
		}
		if redirected {
			// A mispredicted branch flushed everything younger,
			// including later candidates in this cycle's selection.
			break
		}
	}
}

// execute runs the operation in the given scheduler slot. It returns ok =
// false when the op cannot issue this cycle (memory disambiguation), and
// redirected = true when a branch misprediction flushed the pipeline.
func (p *Pipeline) execute(slot int) (ok, redirected bool) {
	f := p.sched.flags[slot]
	robIdx := p.sched.robOf(slot) % ROBSize
	if p.rob.flags[robIdx]&robValid == 0 {
		// Orphaned entry (corrupted state or stale after squash).
		p.sched.flags[slot] = 0
		return true, false
	}
	if _, free := p.exec.alloc(); !free {
		// No writeback slot: structural hazard. Retry next cycle,
		// BEFORE any side effects (branch resolution, cache fills).
		return false, false
	}
	inst := unpackCtl(p.rob.ctl[robIdx])
	pc := p.rob.pc[robIdx]

	v1, v2, v3 := p.sched.operands(slot, &p.prf)

	switch {
	case f&schIsLoad != 0:
		return p.executeLoad(slot, robIdx, inst, v1)
	case f&schIsStore != 0:
		redirected = p.executeStore(slot, robIdx, inst, v1, v2)
		return true, redirected
	case f&schIsBr != 0:
		redirected = p.executeBranch(slot, robIdx, inst, pc, v1)
		return true, redirected
	default:
		p.executeALU(slot, robIdx, inst, v1, v2, v3)
		return true, false
	}
}

func (p *Pipeline) executeALU(slot int, robIdx uint64, inst isa.Inst, v1, v2, v3 uint64) {
	var (
		result  uint64
		excKind = arch.ExcNone
		latency = p.cfg.ALULatency
	)
	switch inst.Op {
	case isa.OpInvalid:
		excKind = arch.ExcIllegalInstruction
	case isa.OpLDA:
		result = v1 + uint64(int64(inst.Disp))
	case isa.OpLDAH:
		result = v1 + uint64(int64(inst.Disp))<<16
	case isa.OpCMOVEQ, isa.OpCMOVNE:
		if isa.EvalCondMove(inst.Op, v1) {
			result = p.operandB(inst, v2)
		} else {
			result = v3 // previous value of the destination
		}
	default:
		b := p.operandB(inst, v2)
		var overflow bool
		result, overflow = isa.EvalOperate(inst.Op, v1, b)
		if overflow && inst.TrapsOverflow() {
			excKind = arch.ExcOverflow
		}
		if isa.ClassOf(inst.Op) == isa.ClassMul {
			latency = p.cfg.MulLatency
		}
	}

	if excKind != arch.ExcNone {
		p.raiseAt(robIdx, excKind, p.rob.pc[robIdx])
		p.rob.flags[robIdx] |= robCompleted
		p.sched.flags[slot] = 0
		return
	}
	p.scheduleWriteback(slot, robIdx, result, latency)
}

func (p *Pipeline) operandB(inst isa.Inst, v2 uint64) uint64 {
	if inst.UseLit {
		return uint64(inst.Lit)
	}
	return v2
}

func (p *Pipeline) executeLoad(slot int, robIdx uint64, inst isa.Inst, base uint64) (ok, redirected bool) {
	addr := base + uint64(int64(inst.Disp))
	size := inst.MemBytes()
	if size == 0 {
		size = 8
	}

	// Memory disambiguation (Figure 3's Mem Dep Pred). By default loads
	// issue speculatively past older stores whose addresses are still
	// unknown; loads whose PC has caused a violation before — and all
	// loads, when speculation is disabled — wait conservatively. Ready
	// older stores always participate: full same-size overlap forwards,
	// partial overlap stalls until the store drains. Age is judged by
	// ROB position, which stays correct as the STQ drains.
	loadPos := p.rob.pos(robIdx)
	speculate := p.memdep != nil && !p.memdep.ShouldWait(p.rob.pc[robIdx])
	n := p.stq.count
	if n > STQSize {
		n = STQSize
	}
	var (
		forward    bool
		forwardVal uint64
		forwardRob uint64
	)
	for i := uint64(0); i < n; i++ {
		si := (p.stq.head + i) % STQSize
		sf := p.stq.flags[si]
		if sf&stqValid == 0 {
			continue
		}
		if p.rob.pos(p.stq.robIdx[si]) >= loadPos {
			continue // younger than the load
		}
		if sf&stqReady == 0 {
			if speculate {
				continue // issue past it; the store checks us later
			}
			return false, false // unknown older store address
		}
		sAddr := p.stq.addr[si]
		sSize := uint64(8)
		if sf&stqIsSTL != 0 {
			sSize = 4
		}
		if sAddr+sSize <= addr || addr+size <= sAddr {
			continue // disjoint
		}
		if sAddr == addr && sSize >= size {
			forward = true
			forwardVal = p.stq.data[si]
			forwardRob = p.stq.robIdx[si]
			continue // newest matching store wins
		}
		return false, false // partial overlap: wait for drain
	}

	var (
		val     uint64
		excKind = arch.ExcNone
	)
	latency := p.cfg.L1D.HitLatency
	switch {
	case forward:
		val = forwardVal
		if inst.Op == isa.OpLDL {
			val = uint64(int64(int32(uint32(val))))
		}
	default:
		if hit, lat := p.dtlb.Access(addr); !hit {
			latency += lat
		}
		if hit, lat := p.l1d.Access(addr); !hit {
			latency += lat
			p.stats.DCacheMisses++
			if l2hit, l2lat := p.l2.Access(addr); !l2hit {
				latency += l2lat
				p.stats.L2Misses++
			}
			if p.MissHook != nil {
				p.MissHook(addr)
			}
		}
		var err error
		switch inst.Op {
		case isa.OpLDL:
			var v32 uint32
			v32, err = p.mem.ReadL(addr)
			val = uint64(int64(int32(v32)))
		default: // LDQ, or a corrupted op treated as a quad load
			val, err = p.mem.ReadQ(addr)
		}
		if err != nil {
			// Wrong-path loads fault harmlessly; the exception is
			// only raised if this instruction commits.
			excKind = memExcKind(err)
			val = 0
		}
	}

	p.rob.result[robIdx] = addr
	p.stats.LoadsIssued++

	// Record the issued access in the LDQ for violation checks.
	li := (p.rob.aux[robIdx] & 0xFF) % LDQSize
	if p.ldq.flags[li]&ldqValid != 0 {
		p.ldq.addr[li] = addr
		f := p.ldq.flags[li] | ldqIssued
		if size == 8 {
			f |= ldqSize8
		} else {
			f &^= ldqSize8
		}
		if forward {
			f |= ldqFwd
			p.ldq.fwdRob[li] = forwardRob
		} else {
			f &^= ldqFwd
		}
		p.ldq.flags[li] = f
	}

	if excKind != arch.ExcNone {
		p.raiseAt(robIdx, excKind, addr)
		p.rob.flags[robIdx] |= robCompleted
		p.sched.flags[slot] = 0
		return true, false
	}
	if latency < 1 {
		latency = 1
	}
	p.scheduleWriteback(slot, robIdx, val, latency)
	return true, false
}

func (p *Pipeline) executeStore(slot int, robIdx uint64, inst isa.Inst, base, data uint64) (redirected bool) {
	addr := base + uint64(int64(inst.Disp))
	size := inst.MemBytes()
	if size == 0 {
		size = 8
	}
	stqIdx := (p.rob.aux[robIdx] & 0xFF) % STQSize

	excKind := arch.ExcNone
	if addr&(size-1) != 0 {
		excKind = arch.ExcAlignment
	} else if !p.mem.Mapped(addr, mem.PermWrite) {
		excKind = arch.ExcAccessFault
	}
	if hit, _ := p.dtlb.Access(addr); !hit {
		p.stats.DCacheMisses++ // TLB fill traffic; timing only
	}

	p.stq.addr[stqIdx] = addr
	p.stq.data[stqIdx] = data
	p.stq.robIdx[stqIdx] = robIdx
	flags := p.stq.flags[stqIdx] | stqReady
	if inst.Op == isa.OpSTL {
		flags |= stqIsSTL
	}
	p.stq.flags[stqIdx] = flags

	p.rob.result[robIdx] = addr
	if excKind != arch.ExcNone {
		p.raiseAt(robIdx, excKind, addr)
	}
	p.rob.flags[robIdx] |= robCompleted
	p.sched.flags[slot] = 0

	if excKind == arch.ExcNone {
		return p.checkMemOrder(robIdx, addr, size)
	}
	return false
}

// checkMemOrder searches the LDQ for younger loads that already read the
// location this store just resolved to. The oldest violator (and everything
// younger) is replayed, and its PC trains the wait table — the 21264's
// store-load order trap.
func (p *Pipeline) checkMemOrder(storeRob, addr, size uint64) (redirected bool) {
	if p.memdep == nil {
		return false
	}
	storePos := p.rob.pos(storeRob)
	victim := uint64(ROBSize) // position of the oldest violating load
	var victimRob uint64
	n := p.ldq.count
	if n > LDQSize {
		n = LDQSize
	}
	for i := uint64(0); i < n; i++ {
		li := (p.ldq.head + i) % LDQSize
		lf := p.ldq.flags[li]
		if lf&ldqValid == 0 || lf&ldqIssued == 0 {
			continue
		}
		loadRob := p.ldq.robIdx[li] % ROBSize
		loadPos := p.rob.pos(loadRob)
		if loadPos <= storePos || loadPos >= p.rob.count {
			continue // older than the store, or stale
		}
		lSize := uint64(4)
		if lf&ldqSize8 != 0 {
			lSize = 8
		}
		lAddr := p.ldq.addr[li]
		if lAddr+lSize <= addr || addr+size <= lAddr {
			continue // disjoint
		}
		if lf&ldqFwd != 0 && p.rob.pos(p.ldq.fwdRob[li]) > storePos {
			continue // forwarded from a store younger than this one
		}
		if loadPos < victim {
			victim = loadPos
			victimRob = loadRob
		}
	}
	if victim == ROBSize {
		return false
	}
	p.stats.MemOrderViolations++
	p.memdep.TrainViolation(p.rob.pc[victimRob])
	replayPC := p.rob.pc[victimRob]
	p.squashFrom(victimRob)
	p.redirect(replayPC)
	return true
}

func (p *Pipeline) executeBranch(slot int, robIdx uint64, inst isa.Inst, pc, v1 uint64) (redirected bool) {
	seq := pc + isa.InstBytes
	var (
		taken  bool
		target uint64
	)
	switch inst.Op {
	case isa.OpBR, isa.OpBSR:
		taken, target = true, isa.BranchTarget(pc, inst.Disp)
	case isa.OpJMP, isa.OpJSR, isa.OpRET:
		taken, target = true, v1&^3
	default:
		taken = isa.EvalCondBranch(inst.Op, v1)
		target = seq
		if taken {
			target = isa.BranchTarget(pc, inst.Disp)
		}
	}

	flags := p.rob.flags[robIdx]
	predTaken := flags&robPredTaken != 0
	predTarget := (p.rob.aux[robIdx] >> 8) & (1<<48 - 1)
	mispredict := target != predTarget

	if taken {
		flags |= robActTaken
	} else {
		flags &^= robActTaken
	}
	if mispredict {
		flags |= robMispredict
		p.stats.Mispredicts++
		if flags&robIsCond != 0 {
			p.stats.CondMispredicts++
		}
	}
	p.rob.result[robIdx] = target
	p.rob.flags[robIdx] = flags

	highConf := flags&robHighConf != 0
	isCond := flags&robIsCond != 0
	if mispredict && isCond && highConf {
		p.stats.HCMispredicts++
	}
	if p.BranchHook != nil {
		p.BranchHook(BranchEvent{
			Cycle:        p.cycle,
			PC:           pc,
			IsCond:       isCond,
			PredTaken:    predTaken,
			ActualTaken:  taken,
			PredTarget:   predTarget,
			ActualTarget: target,
			Mispredicted: mispredict,
			HighConf:     highConf,
		})
	}

	// Link value (BSR/JSR/RET/BR write the return address).
	if flags&robHasDest != 0 {
		p.scheduleWriteback(slot, robIdx, seq, p.cfg.ALULatency)
	} else {
		p.rob.flags[robIdx] |= robCompleted
		p.sched.flags[slot] = 0
	}

	if mispredict {
		p.squashAfter(robIdx)
		p.redirect(target)
		// Repair the speculative history: wrong-path fetches polluted
		// it. Resume from this branch's fetch-time history, extended
		// with its actual outcome if conditional.
		hist := (flags >> robHistShift) & p.histMask()
		if isCond {
			hist = p.shiftHist(hist, taken)
		}
		p.specHist = hist
		return true
	}
	return false
}

// scheduleWriteback places a computed result in the execution window. If no
// slot is free the instruction simply retries next cycle (a structural
// hazard).
func (p *Pipeline) scheduleWriteback(slot int, robIdx uint64, val uint64, latency int) {
	w, free := p.exec.alloc()
	if !free {
		return // retry: scheduler entry stays valid
	}
	tag := uint64(execNoDest)
	if p.rob.flags[robIdx]&robHasDest != 0 {
		tag = p.rob.physDest[robIdx]
	}
	p.exec.issue(w, p.cycle+uint64(latency), val, tag, robIdx)
	p.sched.flags[slot] = 0
}

// raiseAt records an exception on a ROB entry; it is raised if and when the
// entry reaches commit (precise exceptions; wrong-path faults vanish).
func (p *Pipeline) raiseAt(robIdx uint64, kind arch.ExceptionKind, addr uint64) {
	p.rob.flags[robIdx] |= robExcValid | uint64(kind&7)<<robExcShift
	p.rob.result[robIdx] = addr
}

// ---------------------------------------------------------------------------
// Squash and redirect: recovery from a resolved misprediction. Everything
// younger than the branch is flushed; the speculative RAT is rebuilt from
// the architectural RAT plus the surviving ROB entries; the free list is
// recomputed from liveness (robust even under corrupted state).

// squashAfter flushes everything younger than robIdx (the entry itself
// survives): branch-misprediction recovery.
func (p *Pipeline) squashAfter(robIdx uint64) {
	pos := p.rob.pos(robIdx)
	if pos >= ROBSize {
		pos = ROBSize - 1
	}
	p.squashToCount(pos + 1)
}

// squashFrom flushes robIdx and everything younger: memory-order replay,
// which refetches starting at the violating load itself.
func (p *Pipeline) squashFrom(robIdx uint64) {
	p.squashToCount(p.rob.pos(robIdx))
}

// markLive records a physical-register tag in a liveness bitmap. A named
// function (not a closure inside squashToCount) keeps the squash path
// statically allocation-free for hotpathalloc.
func markLive(live *[PhysRegs / 64]uint64, tag uint64) {
	tag %= PhysRegs
	live[tag/64] |= 1 << (tag % 64)
}

func (p *Pipeline) squashToCount(newCount uint64) {
	p.stats.Flushes++
	if newCount > p.rob.count {
		newCount = p.rob.count
	}

	// Invalidate squashed ROB entries.
	for i := newCount; i < p.rob.count && i < ROBSize; i++ {
		idx := (p.rob.head + i) % ROBSize
		p.rob.flags[idx] = 0
	}
	p.rob.count = newCount

	// Rebuild the speculative RAT from the architectural RAT plus
	// surviving mappings, count surviving stores, and gather liveness.
	var live [PhysRegs / 64]uint64
	for r := uint64(0); r < 32; r++ {
		phys := p.archRAT.get(r)
		p.specRAT.set(r, phys)
		markLive(&live, phys)
	}
	stqCount, ldqCount := uint64(0), uint64(0)
	for i := uint64(0); i < newCount && i < ROBSize; i++ {
		idx := (p.rob.head + i) % ROBSize
		f := p.rob.flags[idx]
		if f&robValid == 0 {
			continue
		}
		if f&robHasDest != 0 {
			p.specRAT.set(p.rob.archDest[idx], p.rob.physDest[idx])
			markLive(&live, p.rob.physDest[idx])
			markLive(&live, p.rob.oldPhys[idx])
		}
		if f&robIsStore != 0 {
			stqCount++
		}
		if f&robIsLoad != 0 {
			ldqCount++
		}
	}
	for w := range p.free.bits {
		p.free.bits[w] = ^live[w]
	}

	// Shrink the STQ and LDQ to the surviving entries.
	if stqCount > STQSize {
		stqCount = STQSize
	}
	for i := stqCount; i < p.stq.count && i < STQSize; i++ {
		idx := (p.stq.head + i) % STQSize
		p.stq.flags[idx] = 0
	}
	p.stq.count = stqCount
	if ldqCount > LDQSize {
		ldqCount = LDQSize
	}
	for i := ldqCount; i < p.ldq.count && i < LDQSize; i++ {
		idx := (p.ldq.head + i) % LDQSize
		p.ldq.flags[idx] = 0
	}
	p.ldq.count = ldqCount

	// Drop scheduler entries and in-flight results of squashed work.
	for i := range p.sched.flags {
		if p.sched.flags[i]&schValid == 0 {
			continue
		}
		if p.rob.pos(p.sched.robOf(i)) >= newCount {
			p.sched.flags[i] = 0
		}
	}
	for i := range p.exec.busy {
		if p.exec.busy[i] && p.rob.pos(p.exec.robOf(i)) >= newCount {
			p.exec.busy[i] = false
		}
	}
}

func (p *Pipeline) redirect(target uint64) {
	p.fq.reset()
	p.fetchPC = target
	p.fetchFaulted = false
	p.fetchStallUntil = p.cycle + uint64(p.cfg.RedirectPenalty)
}
