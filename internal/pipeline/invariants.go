package pipeline

import "fmt"

// CheckInvariants verifies the structural invariants that hold on every
// cycle of fault-free execution. Fault-injection trials intentionally break
// them — that is the experiment — so this is a debugging and testing aid,
// not a runtime assertion.
//
// Invariants checked:
//
//  1. occupancy counters within structure bounds;
//  2. every raw RAT entry names an in-range physical register (the access
//     paths mask with %PhysRegs so corrupted entries alias rather than
//     crash, which would silently hide the corruption from this checker);
//  3. no physical register is simultaneously free and mapped by either RAT
//     or in flight as a ROB destination;
//  4. the free list holds exactly the registers nothing maps: its
//     population count is PhysRegs minus the live set;
//  5. live ROB entries have their valid flag set;
//  6. scheduler entries reference live ROB entries;
//  7. every live store ROB entry has a valid STQ slot, and STQ occupancy
//     matches the number of live stores.
func (p *Pipeline) CheckInvariants() error {
	if p.rob.count > ROBSize {
		return fmt.Errorf("rob count %d exceeds capacity", p.rob.count)
	}
	if p.fq.count > FQSize {
		return fmt.Errorf("fetch queue count %d exceeds capacity", p.fq.count)
	}
	if p.stq.count > STQSize {
		return fmt.Errorf("stq count %d exceeds capacity", p.stq.count)
	}
	if p.ldq.count > LDQSize {
		return fmt.Errorf("ldq count %d exceeds capacity", p.ldq.count)
	}

	// Check the raw RAT words before reading them through get(), which
	// masks out-of-range tags into aliases and would mute the diagnostic.
	for r := uint64(0); r < 32; r++ {
		if raw := p.specRAT.m[r]; raw >= PhysRegs {
			return fmt.Errorf("specRAT[%d] holds out-of-range physical tag %d (PhysRegs = %d)", r, raw, PhysRegs)
		}
		if raw := p.archRAT.m[r]; raw >= PhysRegs {
			return fmt.Errorf("archRAT[%d] holds out-of-range physical tag %d (PhysRegs = %d)", r, raw, PhysRegs)
		}
	}

	// Liveness map over physical registers.
	var live [PhysRegs]bool
	for r := uint64(0); r < 32; r++ {
		live[p.specRAT.get(r)] = true
		live[p.archRAT.get(r)] = true
	}
	stores, loads := uint64(0), uint64(0)
	for i := uint64(0); i < p.rob.count; i++ {
		idx := (p.rob.head + i) % ROBSize
		f := p.rob.flags[idx]
		if f&robValid == 0 {
			return fmt.Errorf("live rob entry %d (pos %d) not valid", idx, i)
		}
		if f&robHasDest != 0 {
			live[p.rob.physDest[idx]%PhysRegs] = true
			live[p.rob.oldPhys[idx]%PhysRegs] = true
		}
		if f&robIsStore != 0 {
			stores++
			stqIdx := (p.rob.aux[idx] & 0xFF) % STQSize
			if p.stq.flags[stqIdx]&stqValid == 0 && f&robExcValid == 0 {
				return fmt.Errorf("store rob entry %d references dead stq slot %d", idx, stqIdx)
			}
		}
		if f&robIsLoad != 0 {
			loads++
			ldqIdx := (p.rob.aux[idx] & 0xFF) % LDQSize
			if p.ldq.flags[ldqIdx]&ldqValid == 0 && f&robExcValid == 0 {
				return fmt.Errorf("load rob entry %d references dead ldq slot %d", idx, ldqIdx)
			}
		}
	}
	if stores != p.stq.count {
		return fmt.Errorf("stq count %d but %d live stores in rob", p.stq.count, stores)
	}
	if loads != p.ldq.count {
		return fmt.Errorf("ldq count %d but %d live loads in rob", p.ldq.count, loads)
	}

	liveCount, freeCount := uint64(0), uint64(0)
	for tag := uint64(0); tag < PhysRegs; tag++ {
		isFree := p.free.bits[tag/64]&(1<<(tag%64)) != 0
		if isFree && live[tag] {
			return fmt.Errorf("physical register %d is both free and live", tag)
		}
		if live[tag] {
			liveCount++
		}
		if isFree {
			freeCount++
		}
	}
	if freeCount != PhysRegs-liveCount {
		return fmt.Errorf("free list holds %d registers, want %d (PhysRegs %d - %d live): a register leaked or was double-freed",
			freeCount, PhysRegs-liveCount, uint64(PhysRegs), liveCount)
	}

	for i := range p.sched.flags {
		if p.sched.flags[i]&schValid == 0 {
			continue
		}
		robIdx := p.sched.robOf(i) % ROBSize
		if p.rob.pos(robIdx) >= p.rob.count {
			return fmt.Errorf("scheduler slot %d references dead rob entry %d", i, robIdx)
		}
	}
	return nil
}
