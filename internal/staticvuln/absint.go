package staticvuln

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
)

// The forward pass answers two questions the backward bit-liveness pass
// cannot on its own: which memory does each load and store touch, and which
// bits of each operand are provably constant. Addresses are tracked through a
// small abstract domain — bottom, exact constant, "somewhere in segment s",
// anything — precise enough to separate a kernel's control slots (constant
// offsets in the control block) from its indexed array area, which is exactly
// the distinction software-level masking hinges on: a store to a result slot
// nobody loads is dead, a store to a state slot that is reloaded is live.
// Alongside, every register carries known-zero/known-one bit masks (the
// classic KnownBits domain) so the backward pass can see through masking
// idioms: an AND with a flag constant, a hash narrowed by a shift, a
// condition register that can only ever hold 0 or 1.

type avKind uint8

const (
	avBot avKind = iota
	avConst
	avRegion
	avAny
)

// kbits are per-bit value facts: zero bits are provably 0, one bits provably
// 1. The empty fact (0,0) knows nothing; a constant knows every bit.
type kbits struct {
	zero, one uint64
}

func kbConst(c uint64) kbits { return kbits{zero: ^c, one: c} }

var kbTop = kbits{}

// ok reports whether every bit is known, i.e. the value is a constant.
func (k kbits) ok() bool { return k.zero|k.one == ^uint64(0) }

func (k kbits) val() uint64 { return k.one }

func (k kbits) join(o kbits) kbits {
	return kbits{zero: k.zero & o.zero, one: k.one & o.one}
}

// width returns the number of low bits the value can occupy: bits at or
// above width are known zero.
func (k kbits) width() int { return 64 - bits.LeadingZeros64(^k.zero) }

// aval is an abstract register value: an address-domain component plus
// known-bits. seg is meaningful for avRegion.
type aval struct {
	kind avKind
	c    uint64 // exact value when avConst
	seg  int    // segment id when avRegion
	kb   kbits
}

var anyAV = aval{kind: avAny}

func constAV(c uint64) aval { return aval{kind: avConst, c: c, kb: kbConst(c)} }

// Segment ids extend the program's data-segment indices with the stack and
// the code image.
const segNone = -1

// layout resolves addresses against the program image: segment membership,
// page-granular mappedness (separately for reads and writes, since code pages
// are readable but not writable), and the code extent for jump targets.
type layout struct {
	prog     *workload.Program
	segStack int
	segCode  int
	readPg   map[uint64]bool
	writePg  map[uint64]bool
	codeLo   uint64
	codeHi   uint64
}

func newLayout(p *workload.Program) *layout {
	l := &layout{
		prog:     p,
		segStack: len(p.Segments),
		segCode:  len(p.Segments) + 1,
		readPg:   make(map[uint64]bool),
		writePg:  make(map[uint64]bool),
		codeLo:   p.CodeBase,
		codeHi:   p.CodeBase + uint64(len(p.Code))*isa.InstBytes,
	}
	addPages := func(base, size uint64, writable bool) {
		lo := base &^ (mem.PageSize - 1)
		hi := (base + size + mem.PageSize - 1) &^ (mem.PageSize - 1)
		for pg := lo; pg < hi; pg += mem.PageSize {
			l.readPg[pg] = true
			if writable {
				l.writePg[pg] = true
			}
		}
	}
	for _, seg := range p.Segments {
		addPages(seg.Base, uint64(len(seg.Data)), seg.Perm&mem.PermWrite != 0)
	}
	addPages(workload.StackBase, workload.StackSize, true)
	addPages(l.codeLo, l.codeHi-l.codeLo, false)
	return l
}

func (l *layout) mapped(addr uint64, write bool) bool {
	pg := addr &^ (mem.PageSize - 1)
	if write {
		return l.writePg[pg]
	}
	return l.readPg[pg]
}

// resolveSeg classifies an address into a segment id, or segNone.
func (l *layout) resolveSeg(addr uint64) int {
	if i := l.prog.SegmentFor(addr); i >= 0 {
		return i
	}
	if addr >= workload.StackBase && addr < workload.StackBase+workload.StackSize {
		return l.segStack
	}
	if addr >= l.codeLo && addr < l.codeHi {
		return l.segCode
	}
	return segNone
}

func (l *layout) segBase(seg int) uint64 {
	switch seg {
	case l.segStack:
		return workload.StackBase
	case l.segCode:
		return l.codeLo
	default:
		return l.prog.Segments[seg].Base
	}
}

func (l *layout) segLen(seg int) uint64 {
	switch seg {
	case l.segStack:
		return workload.StackSize
	case l.segCode:
		return l.codeHi - l.codeLo
	default:
		return uint64(len(l.prog.Segments[seg].Data))
	}
}

// isDataSeg reports whether seg is a program data segment whose control-block
// layout (constant slots below slotArea, indexed array area above) applies.
func (l *layout) isDataSeg(seg int) bool {
	return seg >= 0 && seg < len(l.prog.Segments)
}

func (l *layout) joinAV(a, b aval) aval {
	if a.kind == avBot {
		return b
	}
	if b.kind == avBot {
		return a
	}
	kb := a.kb.join(b.kb)
	if a.kind == avAny || b.kind == avAny {
		return aval{kind: avAny, kb: kb}
	}
	segOf := func(v aval) int {
		if v.kind == avRegion {
			return v.seg
		}
		return l.resolveSeg(v.c)
	}
	if a.kind == avConst && b.kind == avConst && a.c == b.c {
		return a
	}
	sa, sb := segOf(a), segOf(b)
	if sa != segNone && sa == sb {
		return aval{kind: avRegion, seg: sa, kb: kb}
	}
	return aval{kind: avAny, kb: kb}
}

// addDelta shifts an abstract value by a known constant.
func addDelta(v aval, d uint64) aval {
	if v.kind == avConst {
		return constAV(v.c + d)
	}
	out := v // regions absorb constant offsets; any/bot unchanged
	out.kb = kbAdd(v.kb, kbConst(d))
	return out
}

// combineAdd models x+y when at least one side is not constant. The locality
// heuristic — a segment-based value plus an unknown index stays in its
// segment — is what lets pointer-chasing loads keep a usable region.
func (l *layout) combineAdd(a, b aval) aval {
	kb := kbAdd(a.kb, b.kb)
	if a.kind == avConst && b.kind == avConst {
		return constAV(a.c + b.c)
	}
	base := func(x, y aval) aval {
		// y is the non-anchoring side (any/bot or a second region).
		switch x.kind {
		case avRegion:
			if y.kind == avRegion {
				return aval{kind: avAny, kb: kb} // two bases: not an address
			}
			return aval{kind: avRegion, seg: x.seg, kb: kb}
		case avConst:
			if s := l.resolveSeg(x.c); s != segNone {
				return aval{kind: avRegion, seg: s, kb: kb}
			}
		}
		return aval{kind: avAny, kb: kb}
	}
	if a.kind == avRegion || a.kind == avConst {
		if b.kind == avConst {
			out := addDelta(a, b.c)
			out.kb = kb
			return out
		}
		return base(a, b)
	}
	if b.kind == avRegion || b.kind == avConst {
		if a.kind == avConst {
			out := addDelta(b, a.c)
			out.kb = kb
			return out
		}
		return base(b, a)
	}
	return aval{kind: avAny, kb: kb}
}

func (l *layout) combineSub(a, b aval) aval {
	if a.kind == avConst && b.kind == avConst {
		return constAV(a.c - b.c)
	}
	if b.kind == avConst {
		out := addDelta(a, -b.c)
		out.kb = kbTop // subtraction can borrow through every bit
		return out
	}
	if a.kind == avRegion {
		return aval{kind: avRegion, seg: a.seg}
	}
	if a.kind == avConst {
		if s := l.resolveSeg(a.c); s != segNone {
			return aval{kind: avRegion, seg: s}
		}
	}
	return anyAV
}

// kbAdd: the sum of two values of bounded width is itself width-bounded;
// individual bits below that are unknown (carries).
func kbAdd(a, b kbits) kbits {
	if a.ok() && b.ok() {
		return kbConst(a.val() + b.val())
	}
	w := a.width()
	if bw := b.width(); bw > w {
		w = bw
	}
	if w >= 64 {
		return kbTop
	}
	return kbits{zero: ^((uint64(1) << (w + 1)) - 1)}
}

// kbEval evaluates the known-bits transfer of one operate instruction.
func kbEval(op isa.Op, a, b kbits) kbits {
	if a.ok() && b.ok() {
		if v, ok := isa.EvalOperate(op, a.val(), b.val()); ok {
			return kbConst(v)
		}
	}
	switch op {
	case isa.OpADDQ, isa.OpADDQV:
		return kbAdd(a, b)
	case isa.OpMULQ, isa.OpMULQV:
		wa, wb := a.width(), b.width()
		if wa+wb >= 64 {
			return kbTop
		}
		return kbits{zero: ^((uint64(1) << (wa + wb)) - 1)}
	case isa.OpAND:
		return kbits{zero: a.zero | b.zero, one: a.one & b.one}
	case isa.OpBIS:
		return kbits{zero: a.zero & b.zero, one: a.one | b.one}
	case isa.OpXOR:
		return kbits{zero: a.zero&b.zero | a.one&b.one, one: a.zero&b.one | a.one&b.zero}
	case isa.OpBIC: // a &^ b
		return kbits{zero: a.zero | b.one, one: a.one & b.zero}
	case isa.OpORNOT: // a | ^b
		return kbits{zero: a.zero & b.one, one: a.one | b.zero}
	case isa.OpSLL:
		if b.ok() {
			s := uint(b.val() & 63)
			return kbits{zero: a.zero<<s | (uint64(1)<<s - 1), one: a.one << s}
		}
	case isa.OpSRL:
		if b.ok() {
			s := uint(b.val() & 63)
			hi := ^uint64(0) << (64 - s)
			if s == 0 {
				hi = 0
			}
			return kbits{zero: a.zero>>s | hi, one: a.one >> s}
		}
	case isa.OpSRA:
		if b.ok() {
			s := uint(b.val() & 63)
			if s == 0 {
				return a
			}
			hi := ^uint64(0) << (64 - s)
			switch {
			case a.zero>>63 != 0: // sign known zero
				return kbits{zero: a.zero>>s | hi, one: a.one >> s}
			case a.one>>63 != 0: // sign known one
				return kbits{zero: a.zero >> s &^ hi, one: a.one>>s | hi}
			}
		}
	case isa.OpCMPEQ, isa.OpCMPLT, isa.OpCMPLE, isa.OpCMPULT, isa.OpCMPULE:
		return kbits{zero: ^uint64(1)} // result is 0 or 1
	case isa.OpADDL, isa.OpSUBL:
		return kbTop // sign extension spoils width reasoning
	default:
		// Branches, memory ops, and remaining operates have no known-bits
		// transfer worth modelling.
	}
	return kbTop
}

// memSite is the resolved address behaviour of one load or store: where it
// points, which address-bit flips merely misalign it (immediate alignment
// fault), which may land on mapped memory (fault-free, wrong location), and —
// implicitly — which leave the mapped space entirely (access fault).
type memSite struct {
	isStore bool
	size    uint64
	kind    avKind
	addr    uint64 // exact address when kind == avConst
	seg     int    // segment id when const/region resolves, else segNone
	align   uint64 // flip mask: misaligns the access
	stay    uint64 // flip mask: may stay on mapped memory (excludes align)
}

// excBits returns the address-bit flips that must fault: misalignment plus
// departures from mapped memory.
func (s *memSite) excBits() uint64 { return ^s.stay }

type absResult struct {
	layout *layout
	sites  []*memSite // per instruction index; nil for non-memory ops
	ka, kb []kbits    // per instruction operand known-bits (Ra, Rb sides)
}

type astate [isa.NumRegs]aval

func (ai *absinterp) get(st *astate, r isa.Reg) aval {
	if r == isa.RegZero {
		return constAV(0)
	}
	return st[r]
}

type absinterp struct {
	g   *cfg
	lay *layout
	res *absResult
}

// runAbsint runs the forward analysis to fixpoint and materialises per-site
// address facts and per-instruction operand known-bits.
func runAbsint(g *cfg, lay *layout) *absResult {
	ai := &absinterp{
		g:   g,
		lay: lay,
		res: &absResult{
			layout: lay,
			sites:  make([]*memSite, len(g.insts)),
			ka:     make([]kbits, len(g.insts)),
			kb:     make([]kbits, len(g.insts)),
		},
	}
	n := len(g.blocks)
	in := make([]astate, n)
	seen := make([]bool, n)
	order := g.reversePostorder()

	seen[g.entry] = true
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if !seen[b] {
				continue
			}
			st := in[b]
			for i := g.blocks[b].start; i < g.blocks[b].end; i++ {
				ai.xfer(&st, i, false)
			}
			for _, s := range g.blocks[b].succs {
				if !seen[s] {
					seen[s] = true
					in[s] = st
					changed = true
					continue
				}
				merged := in[s]
				diff := false
				for r := range merged {
					j := ai.lay.joinAV(merged[r], st[r])
					if j != merged[r] {
						merged[r] = j
						diff = true
					}
				}
				if diff {
					in[s] = merged
					changed = true
				}
			}
		}
	}
	// Final pass: record sites and operand facts from converged states.
	for b := range g.blocks {
		if !seen[b] {
			continue
		}
		st := in[b]
		for i := g.blocks[b].start; i < g.blocks[b].end; i++ {
			ai.xfer(&st, i, true)
		}
	}
	return ai.res
}

// xfer advances the abstract state over instruction idx. When record is set,
// memory sites and operand known-bits are captured.
func (ai *absinterp) xfer(st *astate, idx int, record bool) {
	inst := ai.g.insts[idx]
	lay := ai.lay
	set := func(r isa.Reg, v aval) {
		if r != isa.RegZero {
			st[r] = v
		}
	}
	if record {
		switch {
		case isa.ClassOf(inst.Op) == isa.ClassALU || isa.ClassOf(inst.Op) == isa.ClassMul:
			ai.res.ka[idx] = ai.get(st, inst.Ra).kb
			if inst.UseLit {
				ai.res.kb[idx] = kbConst(uint64(inst.Lit))
			} else {
				ai.res.kb[idx] = ai.get(st, inst.Rb).kb
			}
		case inst.IsCondBranch():
			ai.res.ka[idx] = ai.get(st, inst.Ra).kb
		}
	}

	switch isa.ClassOf(inst.Op) {
	case isa.ClassALU, isa.ClassMul:
		switch inst.Op {
		case isa.OpLDA:
			set(inst.Ra, addDelta(ai.get(st, inst.Rb), uint64(int64(inst.Disp))))
			return
		case isa.OpLDAH:
			set(inst.Ra, addDelta(ai.get(st, inst.Rb), uint64(int64(inst.Disp))<<16))
			return
		case isa.OpCMOVEQ, isa.OpCMOVNE:
			set(inst.Rc, lay.joinAV(ai.get(st, inst.Rc), ai.get(st, inst.Rb)))
			return
		default:
			// Every other ALU/Mul opcode takes the generic operate path below.
		}
		a := ai.get(st, inst.Ra)
		b := constAV(uint64(inst.Lit))
		if !inst.UseLit {
			b = ai.get(st, inst.Rb)
		}
		var res aval
		switch {
		case a.kind == avConst && b.kind == avConst:
			v, _ := isa.EvalOperate(inst.Op, a.c, b.c)
			res = constAV(v)
		case inst.Op == isa.OpADDQ || inst.Op == isa.OpADDQV ||
			inst.Op == isa.OpADDL:
			res = lay.combineAdd(a, b)
		case inst.Op == isa.OpSUBQ || inst.Op == isa.OpSUBQV ||
			inst.Op == isa.OpSUBL:
			res = lay.combineSub(a, b)
		case inst.Op == isa.OpBIS && !inst.UseLit && inst.Ra == inst.Rb:
			res = a // register-to-register move idiom
		default:
			res = aval{kind: avAny, kb: kbEval(inst.Op, a.kb, b.kb)}
		}
		set(inst.Rc, res)

	case isa.ClassLoad:
		av := addDelta(ai.get(st, inst.Rb), uint64(int64(inst.Disp)))
		if record {
			ai.res.sites[idx] = ai.makeSite(av, inst.MemBytes(), false)
		}
		// Locality heuristic: a value loaded from segment s is, if later
		// used as an address, assumed to point back into s (linked nodes
		// and stored cursors stay in their own structure).
		seg := segNone
		switch av.kind {
		case avConst:
			seg = lay.resolveSeg(av.c)
		case avRegion:
			seg = av.seg
		}
		if seg != segNone {
			set(inst.Ra, aval{kind: avRegion, seg: seg})
		} else {
			set(inst.Ra, anyAV)
		}

	case isa.ClassStore:
		if record {
			av := addDelta(ai.get(st, inst.Rb), uint64(int64(inst.Disp)))
			ai.res.sites[idx] = ai.makeSite(av, inst.MemBytes(), true)
		}

	case isa.ClassBranch:
		if d, ok := inst.Dest(); ok {
			set(d, constAV(ai.g.pc(idx)+isa.InstBytes))
		}
	}
}

// makeSite classifies every address bit of a memory access by what flipping
// it does: misalign (immediate alignment fault), stay on mapped memory
// (access succeeds at a wrong location), or leave the mapped space (access
// fault — the paper's dominant symptom, enabled by the sparse address space).
func (ai *absinterp) makeSite(av aval, size uint64, isStore bool) *memSite {
	lay := ai.lay
	s := &memSite{isStore: isStore, size: size, kind: av.kind, seg: segNone}
	switch size {
	case 8:
		s.align = 0x7
	case 4:
		s.align = 0x3
	}
	var rep uint64
	haveRep := false
	switch av.kind {
	case avConst:
		s.addr = av.c
		s.seg = lay.resolveSeg(av.c)
		rep, haveRep = av.c, true
	case avRegion:
		s.seg = av.seg
		rep, haveRep = lay.segBase(av.seg)+slotArea, true
	}
	if !haveRep {
		// Unknown address: treat every non-alignment flip as leaving the
		// mapped space. Junk pointers overwhelmingly fault (Section 3.1).
		return s
	}
	segPages := (lay.segLen(s.seg) + mem.PageSize - 1) / mem.PageSize
	for b := uint(0); b < 64; b++ {
		bit := uint64(1) << b
		if bit&s.align != 0 {
			continue
		}
		if av.kind == avRegion && bit < segPages*mem.PageSize {
			// Some offset in the segment keeps the flipped address inside
			// the segment's mapped pages.
			s.stay |= bit
			continue
		}
		if lay.mapped(rep^bit, isStore) {
			s.stay |= bit
		}
	}
	return s
}
