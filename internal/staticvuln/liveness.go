package staticvuln

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/workload"
)

// Backward bit-level liveness. For every program point and register the
// analysis keeps, per symptom class, the set of bits whose corruption can
// reach that class's trigger (and a lower bound on how soon, in
// instructions). A result bit that reaches no class is un-ACE: the dynamic
// campaign must eventually classify a flip of it as masked, because every
// architectural effect of the flip washes out.

const maxDist = 1 << 30

const allBits = ^uint64(0)

// fact is the per-register liveness at one program point.
type fact struct {
	mask [numClasses]uint64
	dist [numClasses]uint32
}

func emptyFact() fact {
	var f fact
	for c := range f.dist {
		f.dist[c] = maxDist
	}
	return f
}

func (f *fact) add(cls int, mask uint64, dist uint32) {
	if mask == 0 {
		return
	}
	f.mask[cls] |= mask
	if dist < f.dist[cls] {
		f.dist[cls] = dist
	}
}

func (f *fact) or(o *fact) {
	for c := 0; c < numClasses; c++ {
		f.add(c, o.mask[c], o.dist[c])
	}
}

// orChanged merges o into f and reports whether f grew. Used by the memory
// cells, whose growth must extend the fixpoint.
func (f *fact) orChanged(o *fact) bool {
	changed := false
	for c := 0; c < numClasses; c++ {
		if o.mask[c]&^f.mask[c] != 0 || (o.mask[c] != 0 && o.dist[c] < f.dist[c]) {
			changed = true
		}
		f.add(c, o.mask[c], o.dist[c])
	}
	return changed
}

func (f *fact) bump() {
	for c := 0; c < numClasses; c++ {
		if f.mask[c] != 0 && f.dist[c] < maxDist {
			f.dist[c]++
		}
	}
}

func (f *fact) union() uint64 {
	var u uint64
	for c := 0; c < numClasses; c++ {
		u |= f.mask[c]
	}
	return u
}

func (f *fact) live() bool { return f.union() != 0 }

// minDist returns the smallest distance over live classes.
func (f *fact) minDist() uint32 {
	d := uint32(maxDist)
	for c := 0; c < numClasses; c++ {
		if f.mask[c] != 0 && f.dist[c] < d {
			d = f.dist[c]
		}
	}
	return d
}

type regFacts [isa.NumRegs]fact

func emptyRegFacts() regFacts {
	var rf regFacts
	for r := range rf {
		rf[r] = emptyFact()
	}
	return rf
}

func (rf *regFacts) bump() {
	for r := range rf {
		rf[r].bump()
	}
}

// memCells is the flow-insensitive memory side of the analysis. Loads
// deposit their destination's liveness into the cell they read; stores pick
// up the liveness of every cell they may write. Constant addresses get exact
// quadword cells; indexed accesses share one per-segment region cell. The
// control-block convention (constant slots below slotArea, arrays above)
// keeps a dead result slot from aliasing the indexed array next to it.
type memCells struct {
	lay     *layout
	slot    map[uint64]*fact
	region  map[int]*fact
	anyLoad fact
	changed bool
}

func newMemCells(lay *layout) *memCells {
	return &memCells{
		lay:    lay,
		slot:   make(map[uint64]*fact),
		region: make(map[int]*fact),
	}
}

func (mc *memCells) slotFact(key uint64) *fact {
	f, ok := mc.slot[key]
	if !ok {
		nf := emptyFact()
		f = &nf
		mc.slot[key] = f
	}
	return f
}

func (mc *memCells) regionFact(seg int) *fact {
	f, ok := mc.region[seg]
	if !ok {
		nf := emptyFact()
		f = &nf
		mc.region[seg] = f
	}
	return f
}

// foldLDL maps the liveness of an LDL destination back onto the 32 memory
// bits it reads: bits 32..63 of the register are copies of memory bit 31.
func foldLDL(m uint64) uint64 {
	f := m & 0x7FFF_FFFF
	if m>>31 != 0 {
		f |= 1 << 31
	}
	return f
}

// addLoad records that the load at site reads memory whose corruption
// surfaces with the load destination's liveness l.
func (mc *memCells) addLoad(site *memSite, l *fact) {
	cell := *l
	if site.size == 4 {
		folded := emptyFact()
		for c := 0; c < numClasses; c++ {
			folded.add(c, foldLDL(l.mask[c]), l.dist[c])
		}
		cell = folded
	}
	switch site.kind {
	case avConst:
		f := &cell
		if site.size == 4 && site.addr%8 == 4 {
			shifted := emptyFact()
			for c := 0; c < numClasses; c++ {
				shifted.add(c, cell.mask[c]<<32, cell.dist[c])
			}
			f = &shifted
		}
		if mc.slotFact(site.addr &^ 7).orChanged(f) {
			mc.changed = true
		}
	case avRegion:
		if mc.regionFact(site.seg).orChanged(&cell) {
			mc.changed = true
		}
	default:
		if mc.anyLoad.orChanged(&cell) {
			mc.changed = true
		}
	}
}

// demandStore returns the liveness of the memory a store may write, i.e. the
// demand on its data register. A store no load can observe returns an empty
// fact — the dead-store half of software-level masking.
func (mc *memCells) demandStore(site *memSite) fact {
	d := emptyFact()
	d.or(&mc.anyLoad)
	lay := mc.lay
	inArray := func(addr uint64) bool {
		seg := lay.resolveSeg(addr)
		if seg == segNone {
			return false
		}
		if lay.isDataSeg(seg) {
			return addr-lay.segBase(seg) >= slotArea
		}
		return true // stack and code cells alias their whole region
	}
	switch site.kind {
	case avConst:
		if f, ok := mc.slot[site.addr&^7]; ok {
			d.or(f)
		}
		if inArray(site.addr) {
			if f, ok := mc.region[site.seg]; ok {
				d.or(f)
			}
		}
	case avRegion:
		if f, ok := mc.region[site.seg]; ok {
			d.or(f)
		}
		for addr, f := range mc.slot {
			if lay.resolveSeg(addr) == site.seg && inArray(addr) {
				d.or(f)
			}
		}
	default:
		for _, f := range mc.slot {
			d.or(f)
		}
		for _, f := range mc.region {
			d.or(f)
		}
	}
	// Map cell bits onto data-register bits for 32-bit stores.
	if site.size == 4 {
		narrowed := emptyFact()
		for c := 0; c < numClasses; c++ {
			m := d.mask[c]
			switch {
			case site.kind == avConst && site.addr%8 == 4:
				m >>= 32
			case site.kind == avConst:
				m &= 0xFFFF_FFFF
			default:
				m = (m | m>>32) & 0xFFFF_FFFF
			}
			narrowed.add(c, m, d.dist[c])
		}
		d = narrowed
	}
	return d
}

// liveness is the backward solver.
type liveness struct {
	g        *cfg
	ab       *absResult
	cells    *memCells
	boundary regFacts
	liveIn   []regFacts
	liveOut  []regFacts
	dest     []fact // per instruction: liveness of its result bits
	selfLive [isa.NumRegs]bool
	// Indirect-target bit classification, from the code extent.
	targetCFV uint64
	reach     []bool // blocks reachable from entry
}

func newLiveness(g *cfg, ab *absResult) *liveness {
	lv := &liveness{
		g:       g,
		ab:      ab,
		cells:   newMemCells(ab.layout),
		liveIn:  make([]regFacts, len(g.blocks)),
		liveOut: make([]regFacts, len(g.blocks)),
		dest:    make([]fact, len(g.insts)),
	}
	for b := range lv.liveIn {
		lv.liveIn[b] = emptyRegFacts()
		lv.liveOut[b] = emptyRegFacts()
	}
	for i := range lv.dest {
		lv.dest[i] = emptyFact()
	}
	lv.computeReach()
	lv.computeSelfLive()
	lv.boundary = lv.makeBoundary()
	lv.targetCFV = lv.makeTargetMask()
	return lv
}

func (lv *liveness) computeReach() {
	lv.reach = make([]bool, len(lv.g.blocks))
	stack := []int{lv.g.entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if lv.reach[b] {
			continue
		}
		lv.reach[b] = true
		stack = append(stack, lv.g.blocks[b].succs...)
	}
}

// computeSelfLive finds registers whose corruption can never wash out: no
// recurrent (re-executable) definition overwrites them with a value
// independent of their old contents. The global iteration counter and the
// stack pointer are the canonical cases — both are only ever updated from
// themselves, so a flip diverges architectural state for the rest of the run
// (the dynamic campaign's "register" outcome).
func (lv *liveness) computeSelfLive() {
	// Recurrent blocks: members of natural loops plus everything reachable
	// from them (callees entered from loop bodies re-execute every
	// iteration even though the CFG has no return edges).
	recurrent := make([]bool, len(lv.g.blocks))
	var stack []int
	for b := range lv.g.blocks {
		if lv.reach[b] && lv.g.loopDepth[b] > 0 {
			stack = append(stack, b)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if recurrent[b] {
			continue
		}
		recurrent[b] = true
		stack = append(stack, lv.g.blocks[b].succs...)
	}

	var defined, washed [isa.NumRegs]bool
	for b := range lv.g.blocks {
		if !lv.reach[b] {
			continue
		}
		for i := lv.g.blocks[b].start; i < lv.g.blocks[b].end; i++ {
			inst := lv.g.insts[i]
			d, ok := inst.Dest()
			if !ok || d == isa.RegZero {
				continue
			}
			defined[d] = true
			if !recurrent[b] {
				continue
			}
			if inst.Op == isa.OpCMOVEQ || inst.Op == isa.OpCMOVNE {
				continue // partial write preserves old bits
			}
			usesSelf := false
			for _, u := range inst.Uses() {
				if u.Reg == d {
					usesSelf = true
				}
			}
			if !usesSelf {
				washed[d] = true
			}
		}
	}
	for r := range lv.selfLive {
		lv.selfLive[r] = defined[r] && !washed[r]
	}
}

// makeBoundary is the liveness fact at program exits. Synthetic workloads
// loop forever, so this matters only for HALT-terminated test programs: the
// calling convention's long-lived registers (stack, globals, kernel bases,
// return address, iteration counter) are live, scratch registers are dead.
func (lv *liveness) makeBoundary() regFacts {
	rf := emptyRegFacts()
	for r := isa.Reg(15); r <= 25; r++ {
		rf[r].add(clsException, allBits, maxDist-1)
	}
	rf[isa.RegSP].add(clsException, allBits, maxDist-1)
	rf[isa.RegGP].add(clsException, allBits, maxDist-1)
	rf[isa.RegRA].add(clsCFV, allBits&^3, maxDist-1)
	rf[workload.RegIter].add(clsRegister, allBits, maxDist-1)
	return rf
}

// makeTargetMask classifies indirect-target bits: flips that may stay inside
// the code image cause a control-flow violation; flips that leave it fault on
// fetch; bits 0..1 are ignored by the hardware (targets are masked to
// instruction alignment).
func (lv *liveness) makeTargetMask() uint64 {
	lay := lv.ab.layout
	rep := lay.codeLo + (lay.codeHi-lay.codeLo)/2&^3
	var cfv uint64
	for b := uint(2); b < 64; b++ {
		bit := uint64(1) << b
		if bit < lay.codeHi-lay.codeLo || (rep^bit >= lay.codeLo && rep^bit < lay.codeHi) {
			cfv |= bit
		}
	}
	return cfv
}

// solve runs the backward fixpoint (including the memory cells) and then a
// final recording pass that captures each instruction's result-bit fact.
func (lv *liveness) solve() error {
	order := lv.g.reversePostorder()
	// Process blocks in postorder (successors first) for fast convergence.
	post := make([]int, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		post = append(post, order[i])
	}
	for round := 0; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("staticvuln: liveness did not converge in %d rounds", maxRounds)
		}
		changed := false
		for _, b := range post {
			if !lv.reach[b] {
				continue
			}
			out := lv.joinSuccs(b)
			if out != lv.liveOut[b] {
				lv.liveOut[b] = out
				changed = true
			}
			in := lv.transferBlock(b, out)
			if in != lv.liveIn[b] {
				lv.liveIn[b] = in
				changed = true
			}
		}
		if lv.cells.changed {
			lv.cells.changed = false
			changed = true
		}
		if !changed {
			break
		}
	}
	// Recording pass from converged out-facts.
	for b := range lv.g.blocks {
		if lv.reach[b] {
			lv.transferBlock(b, lv.liveOut[b])
		}
	}
	return nil
}

func (lv *liveness) joinSuccs(b int) regFacts {
	succs := lv.g.blocks[b].succs
	if len(succs) == 0 {
		return lv.boundary
	}
	out := emptyRegFacts()
	for _, s := range succs {
		for r := range out {
			out[r].or(&lv.liveIn[s][r])
		}
	}
	return out
}

func (lv *liveness) transferBlock(b int, out regFacts) regFacts {
	st := out
	for i := lv.g.blocks[b].end - 1; i >= lv.g.blocks[b].start; i-- {
		lv.transferInst(i, &st)
	}
	return st
}

// transferInst rewinds the state across instruction idx: capture and kill the
// destination, then add the demands the instruction's uses generate.
func (lv *liveness) transferInst(idx int, st *regFacts) {
	inst := lv.g.insts[idx]
	var l fact
	d, hasDest := inst.Dest()
	if hasDest && d != isa.RegZero {
		l = st[d]
		if lv.selfLive[d] {
			l.add(clsRegister, allBits, maxDist-1)
		}
		lv.dest[idx] = l
		if inst.Op != isa.OpCMOVEQ && inst.Op != isa.OpCMOVNE {
			st[d] = emptyFact()
		}
	}
	st.bump()

	site := lv.ab.sites[idx]
	if inst.IsLoad() && site != nil {
		lv.cells.addLoad(site, &l)
	}
	var storeDemand fact
	if inst.IsStore() && site != nil {
		storeDemand = lv.cells.demandStore(site)
	}

	for _, u := range inst.Uses() {
		if u.Reg == isa.RegZero {
			continue
		}
		rf := &st[u.Reg]
		switch u.Kind {
		case isa.UseOperand:
			for c := 0; c < numClasses; c++ {
				dm := srcDemand(inst, u.Reg == inst.Ra, l.mask[c],
					lv.ab.ka[idx], lv.ab.kb[idx])
				rf.add(c, dm, satAdd(l.dist[c], 1))
			}
		case isa.UseCondition:
			if inst.IsCondBranch() {
				rf.add(clsCFV, condMask(inst.Op, lv.ab.ka[idx]), 1)
			} else { // conditional move: outcome feeds the destination
				for c := 0; c < numClasses; c++ {
					if l.mask[c] != 0 {
						rf.add(c, allBits, satAdd(l.dist[c], 1))
					}
				}
			}
		case isa.UseTarget:
			rf.add(clsCFV, lv.targetCFV, 1)
			rf.add(clsException, ^(lv.targetCFV | 3), 1)
		case isa.UseAddrBase:
			if site == nil {
				rf.add(clsException, allBits, 1)
				break
			}
			rf.add(clsException, site.excBits(), 1)
			if inst.IsStore() {
				// In-page flips write a live-looking cell at the wrong
				// address; the stale divergence surfaces as mem-data.
				rf.add(clsMem, site.stay, 1)
			} else {
				for c := 0; c < numClasses; c++ {
					if l.mask[c] != 0 {
						rf.add(c, site.stay, satAdd(l.dist[c], 1))
					}
				}
			}
		case isa.UseStoreData:
			for c := 0; c < numClasses; c++ {
				rf.add(c, storeDemand.mask[c], satAdd(storeDemand.dist[c], 1))
			}
		}
	}
}

func satAdd(d uint32, n uint32) uint32 {
	if d >= maxDist-n {
		return maxDist - 1
	}
	return d + n
}

// condMask returns the condition-register bits that can change a conditional
// branch's direction. Sign tests depend only on the sign bit. Zero-involved
// tests depend on every bit the value can actually hold: flipping a
// known-zero bit of a flag that is currently non-zero cannot turn it into
// zero, so for the common flag idiom (AND x,1 feeding BNE) only bit 0 is
// predicted live. A flip of a known-zero bit while the flag happens to be 0
// does change the direction — that residue is value-dependent masking the
// static model charges to the masked side, matching how rarely it fires.
func condMask(op isa.Op, cond kbits) uint64 {
	switch op {
	case isa.OpBLT, isa.OpBGE:
		return 1 << 63
	default:
		// Zero-involved tests (BEQ/BNE/BLE/BGT/BLBC/BLBS) and everything
		// else: any bit the value can hold may flip the direction.
	}
	return allBits &^ cond.zero
}

// belowSmear widens a live mask downward: every source bit at or below the
// highest live result bit may matter when bit positions are not preserved.
func belowSmear(m uint64) uint64 {
	if m == 0 {
		return 0
	}
	n := bits.Len64(m)
	if n >= 64 {
		return allBits
	}
	return (uint64(1) << n) - 1
}

// fold32 maps liveness of a sign-extended 32-bit result onto the 32
// low source bits: bits 32..63 are copies of bit 31.
func fold32(m uint64) uint64 {
	f := m & 0x7FFF_FFFF
	if m>>31 != 0 {
		f |= 1 << 31
	}
	return f
}

// srcDemand is the bit-transfer function: given the liveness mask m of an
// instruction's result, it returns the demand on one source register.
// Known-bits of the other operand sharpen AND/OR/shift transfers; that
// sharpening is where most statically provable masking comes from.
//
// Addition and subtraction are treated as bit-position-preserving: flipping
// source bit k flips result bit k plus, when a carry chain happens to cross
// it, a run of higher bits. The carry residue is rare for the address and
// counter arithmetic that dominates these programs, so charging demand only
// at the same position predicts the dynamic outcome far better than the
// sound-but-weak "every bit at or below the highest live bit" smear, which
// is kept for multiplication where positions genuinely scramble.
func srcDemand(inst isa.Inst, isRa bool, m uint64, ka, kb kbits) uint64 {
	if m == 0 {
		return 0
	}
	other := kb
	if !isRa {
		other = ka
	}
	switch inst.Op {
	case isa.OpADDQ, isa.OpSUBQ, isa.OpADDQV, isa.OpSUBQV,
		isa.OpLDA, isa.OpLDAH:
		return m
	case isa.OpADDL, isa.OpSUBL:
		return fold32(m)
	case isa.OpMULQ, isa.OpMULQV:
		return belowSmear(m)
	case isa.OpAND:
		return m &^ other.zero // known-zero bits of the mask absorb flips
	case isa.OpBIS:
		return m &^ other.one // known-one bits of the other side dominate
	case isa.OpBIC: // ra &^ rb
		if isRa {
			return m &^ other.one
		}
		return m &^ other.zero
	case isa.OpORNOT: // ra | ^rb
		if isRa {
			return m &^ other.zero
		}
		return m &^ other.one
	case isa.OpXOR:
		return m
	case isa.OpSLL, isa.OpSRL, isa.OpSRA:
		if !isRa { // shift amount: low six bits select the distance
			return 0x3F
		}
		if !kb.ok() {
			return allBits
		}
		s := uint(kb.val() & 63)
		switch inst.Op {
		case isa.OpSLL:
			return m >> s
		case isa.OpSRL:
			return m << s
		default: // SRA: bits shifted past the top collapse onto the sign
			d := m << s
			if s > 0 && m>>(64-s) != 0 {
				d |= 1 << 63
			}
			return d
		}
	case isa.OpCMPEQ, isa.OpCMPLT, isa.OpCMPLE, isa.OpCMPULT, isa.OpCMPULE:
		if m&1 != 0 {
			return allBits
		}
		return 0
	case isa.OpCMOVEQ, isa.OpCMOVNE: // value operand moves through
		return m
	default:
		// Remaining opcodes are treated as bit-position-preserving.
	}
	return m
}
