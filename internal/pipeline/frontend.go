package pipeline

import (
	"repro/internal/arch"
	"repro/internal/isa"
)

// ---------------------------------------------------------------------------
// Rename/dispatch: pop up to four fetch-queue entries in order, decode them
// into control words, rename their registers through the speculative RAT,
// and allocate ROB / scheduler / STQ resources.

func (p *Pipeline) doRename() {
	for n := 0; n < FetchWidth; n++ {
		if p.fq.empty() || p.rob.full() {
			return
		}
		idx := p.fq.head % FQSize
		pc, word, pred := p.fq.pc[idx], p.fq.word[idx], p.fq.pred[idx]

		if pred&(1<<fqFetchFault) != 0 {
			// Instruction fetch itself faulted: allocate a completed
			// ROB entry that raises an access fault at commit.
			robIdx, ok := p.rob.alloc()
			if !ok {
				return
			}
			p.fq.pop()
			p.rob.pc[robIdx] = pc
			p.rob.ctl[robIdx] = packFetchFault()
			p.rob.result[robIdx] = pc
			p.rob.flags[robIdx] = robValid | robCompleted | robFetchFault |
				robExcValid | uint64(arch.ExcAccessFault)<<robExcShift
			p.stats.Dispatched++
			continue
		}

		inst := p.decode(pc, uint32(word))
		if !p.dispatchOne(pc, inst, pred) {
			return // resource stall; retry next cycle
		}
		p.fq.pop()
		p.stats.Dispatched++
	}
}

// dispatchOne allocates all resources for one instruction. It returns false
// (allocating nothing) if any resource is exhausted.
func (p *Pipeline) dispatchOne(pc uint64, inst isa.Inst, pred uint64) bool {
	class := isa.ClassOf(inst.Op)
	needsSched := class != isa.ClassNop && class != isa.ClassHalt && class != isa.ClassInvalid
	isStore := inst.IsStore()

	if p.rob.full() {
		return false
	}
	schedSlot := -1
	if needsSched {
		slot, ok := p.sched.alloc()
		if !ok {
			return false
		}
		schedSlot = slot
	}
	if isStore && p.stq.full() {
		return false
	}
	if inst.IsLoad() && p.ldq.full() {
		return false
	}

	dest, hasDest := inst.Dest()
	if hasDest && dest == isa.RegZero {
		hasDest = false
	}
	var physDest, oldPhys uint64
	if hasDest {
		tag, ok := p.free.alloc()
		if !ok {
			return false // no free physical register
		}
		physDest = tag
		oldPhys = p.specRAT.get(uint64(dest))
	}

	robIdx, ok := p.rob.alloc()
	if !ok {
		if hasDest {
			p.free.free(physDest)
		}
		return false
	}

	flags := uint64(robValid)
	p.rob.pc[robIdx] = pc
	p.rob.ctl[robIdx] = packCtl(inst)
	p.rob.result[robIdx] = 0
	p.rob.aux[robIdx] = (pred & (1<<48 - 1)) << 8 // predicted target

	switch {
	case class == isa.ClassInvalid:
		flags |= robCompleted | robExcValid |
			uint64(arch.ExcIllegalInstruction)<<robExcShift
		p.rob.result[robIdx] = pc
	case class == isa.ClassNop:
		flags |= robCompleted
	case class == isa.ClassHalt:
		flags |= robCompleted | robHalt
	}
	if inst.IsLoad() {
		flags |= robIsLoad
		ldqIdx, ok := p.ldq.alloc()
		if !ok {
			// Checked above; only reachable under corrupted state.
			p.rob.flags[robIdx] = flags | robCompleted | robExcValid |
				uint64(arch.ExcAccessFault)<<robExcShift
			return true
		}
		p.ldq.robIdx[ldqIdx] = robIdx
		p.rob.aux[robIdx] = (p.rob.aux[robIdx] &^ 0xFF) | ldqIdx
	}
	if isStore {
		flags |= robIsStore
		stqIdx, ok := p.stq.alloc()
		if !ok {
			// Checked above; can only fail under corrupted state.
			p.rob.flags[robIdx] = flags | robCompleted | robExcValid |
				uint64(arch.ExcAccessFault)<<robExcShift
			return true
		}
		p.stq.robIdx[stqIdx] = robIdx
		p.rob.aux[robIdx] = (p.rob.aux[robIdx] &^ 0xFF) | stqIdx
	}
	if inst.IsBranch() {
		flags |= robIsBranch
		if inst.IsCondBranch() {
			flags |= robIsCond
		}
		if pred&(1<<fqPredTaken) != 0 {
			flags |= robPredTaken
		}
		if pred&(1<<fqPredConf) != 0 {
			flags |= robHighConf
		}
		hist := (pred >> fqHistShift) & p.histMask()
		flags |= hist << robHistShift
	}

	if hasDest {
		flags |= robHasDest
		p.rob.physDest[robIdx] = physDest
		p.rob.oldPhys[robIdx] = oldPhys
		p.rob.archDest[robIdx] = uint64(dest)
	}

	// Rename sources before updating the destination mapping (an
	// instruction may read and write the same architectural register).
	if schedSlot >= 0 {
		p.fillScheduler(schedSlot, robIdx, inst, flags, oldPhys)
	}

	if hasDest {
		p.specRAT.set(uint64(dest), physDest)
		p.prf.setReady(physDest, false)
	}

	p.rob.flags[robIdx] = flags
	return true
}

// srcTag returns the current speculative mapping of an architectural source
// register. A named method (not a closure inside fillScheduler) keeps the
// dispatch path statically allocation-free for hotpathalloc.
func (p *Pipeline) srcTag(r isa.Reg) uint64 { return p.specRAT.get(uint64(r)) }

// fillScheduler writes the scheduler entry with renamed source tags.
func (p *Pipeline) fillScheduler(slot int, robIdx uint64, inst isa.Inst, robFlags, oldPhys uint64) {
	f := uint64(schValid)
	var s1, s2, s3 uint64

	switch {
	case inst.IsLoad():
		f |= schIsLoad
		s1, f = p.srcTag(inst.Rb), f|schSrc1
	case inst.IsStore():
		f |= schIsStore
		s1, f = p.srcTag(inst.Rb), f|schSrc1 // base
		s2, f = p.srcTag(inst.Ra), f|schSrc2 // data
	case inst.IsBranch():
		f |= schIsBr
		if inst.IsCondBranch() {
			s1, f = p.srcTag(inst.Ra), f|schSrc1
		} else if inst.IsIndirect() {
			s1, f = p.srcTag(inst.Rb), f|schSrc1
		}
	case inst.Op == isa.OpLDA || inst.Op == isa.OpLDAH:
		s1, f = p.srcTag(inst.Rb), f|schSrc1
	case inst.Op == isa.OpCMOVEQ || inst.Op == isa.OpCMOVNE:
		s1, f = p.srcTag(inst.Ra), f|schSrc1
		if !inst.UseLit {
			s2, f = p.srcTag(inst.Rb), f|schSrc2
		}
		// The previous destination mapping is a genuine third source.
		s3, f = oldPhys, f|schSrc3
	case inst.Op == isa.OpInvalid:
		// Completed at dispatch with an exception; no scheduler entry
		// is reached (dispatchOne only calls us for schedulable ops),
		// but guard anyway.
	default: // operate
		if isa.ClassOf(inst.Op) == isa.ClassMul {
			f |= schIsMul
		}
		s1, f = p.srcTag(inst.Ra), f|schSrc1
		if !inst.UseLit {
			s2, f = p.srcTag(inst.Rb), f|schSrc2
		}
	}

	// Reading the zero register never waits: it is physical register 31,
	// which is permanently ready and zero.

	p.sched.fill(slot, f, robIdx, s1, s2, s3)
}

// ---------------------------------------------------------------------------
// Fetch: up to four sequential instructions per cycle, redirected by the
// branch predictors, BTB and RAS. Prediction metadata rides along in the
// fetch queue.

func (p *Pipeline) doFetch() {
	if p.fetchFaulted || p.cycle < p.fetchStallUntil {
		return
	}

	// I-TLB and I-cache access for this fetch group.
	if hit, lat := p.itlb.Access(p.fetchPC); !hit {
		p.fetchStallUntil = p.cycle + uint64(lat)
		return
	}
	if hit, lat := p.l1i.Access(p.fetchPC); !hit {
		p.stats.ICacheMisses++
		stall := uint64(lat)
		if l2hit, l2lat := p.l2.Access(p.fetchPC); !l2hit {
			stall += uint64(l2lat)
			p.stats.L2Misses++
		}
		p.fetchStallUntil = p.cycle + stall
		return
	}

	pc := p.fetchPC
	for n := 0; n < FetchWidth; n++ {
		if p.fq.full() {
			break
		}
		word, err := p.mem.FetchWord(pc)
		if err != nil {
			// Fetch fault: enqueue the faulting marker and stop
			// fetching until a redirect proves it was wrong-path.
			p.fq.push(pc, 0, 1<<fqFetchFault)
			p.fetchFaulted = true
			p.stats.Fetched++
			pc += isa.InstBytes
			break
		}
		inst := p.decode(pc, word)
		pred := uint64(0)
		nextPC := pc + isa.InstBytes

		if inst.IsBranch() {
			hist := p.specHist
			predTaken, predTarget, conf := p.predictBranch(pc, inst)
			pred |= 1 << fqPredBranch
			pred |= (hist & p.histMask()) << fqHistShift
			if predTaken {
				pred |= 1 << fqPredTaken
			}
			if conf {
				pred |= 1 << fqPredConf
			}
			if predTaken {
				nextPC = predTarget
			}
			pred |= nextPC & (1<<48 - 1)
			p.fq.push(pc, uint64(word), pred)
			p.stats.Fetched++
			pc = nextPC
			if predTaken {
				break // fetch group ends at a predicted-taken branch
			}
			continue
		}

		pred |= nextPC & (1<<48 - 1)
		p.fq.push(pc, uint64(word), pred)
		p.stats.Fetched++
		pc = nextPC
		if pc&(uint64(1)<<p.cfg.L1I.LineBits-1) == 0 {
			break // fetch groups do not cross cache lines
		}
	}
	p.fetchPC = pc
}

// predictBranch produces the front end's direction, target, and confidence
// for a branch at pc.
func (p *Pipeline) predictBranch(pc uint64, inst isa.Inst) (taken bool, target uint64, conf bool) {
	seq := pc + isa.InstBytes
	switch {
	case inst.Op == isa.OpBR || inst.Op == isa.OpBSR:
		if inst.Op == isa.OpBSR {
			p.ras.Push(seq)
		}
		return true, isa.BranchTarget(pc, inst.Disp), false
	case inst.IsReturn():
		if t, ok := p.ras.Pop(); ok {
			return true, t, false
		}
		if t, ok := p.btb.Lookup(pc); ok {
			return true, t, false
		}
		return false, seq, false
	case inst.IsIndirect(): // JMP/JSR
		if inst.Op == isa.OpJSR {
			p.ras.Push(seq)
		}
		if t, ok := p.btb.Lookup(pc); ok {
			return true, t, false
		}
		// No target available: predict fall-through; resolution will
		// redirect.
		return false, seq, false
	default: // conditional
		taken = p.dir.PredictH(pc, p.specHist)
		conf = p.conf.Confident(pc)
		p.specHist = p.shiftHist(p.specHist, taken)
		if taken {
			return true, isa.BranchTarget(pc, inst.Disp), conf
		}
		return false, seq, conf
	}
}
