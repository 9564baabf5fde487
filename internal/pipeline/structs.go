package pipeline

// The stateful structures of the machine. Every word that models hardware
// state is a uint64 registered in the StateSpace, so campaigns can flip any
// bit of any structure (except caches and predictor tables, which the paper
// excludes). Index fields are masked at every use: a corrupted pointer
// aliases to a wrong-but-valid entry exactly as mis-addressed hardware
// would, and can never crash the simulator.
//
// Array-shaped state lives in slices aliased onto the StateSpace's packed
// backing array (BindArray + RegisterPacked), so hashing, snapshotting and
// ResetFrom sweep one contiguous word array instead of chasing per-element
// pointers. Element registration order is unchanged from the original
// per-field arrays: that order defines the campaign sampling space
// (NthBit), so preserving it keeps every pre-drawn pick stream — and thus
// every published campaign result — byte-identical.

import "math/bits"

// Fetch-queue pred-word bit positions (target occupies [47:0], the
// fetch-time global history [61:52]).
const (
	fqPredTaken  = 48
	fqPredConf   = 49
	fqPredBranch = 50
	fqFetchFault = 51
	fqHistShift  = 52
	fqPredBits   = 62
)

// fetchQueue sits between the fetch engine and rename (Figure 3's 32-entry
// fetch queue). Entries hold the raw instruction word — the I-latches — plus
// the front end's prediction metadata.
type fetchQueue struct {
	pc   []uint64
	word []uint64
	pred []uint64

	head  uint64
	count uint64
}

func (q *fetchQueue) register(s *StateSpace) {
	pc := s.BindArray(&q.pc, FQSize)
	word := s.BindArray(&q.word, FQSize)
	pred := s.BindArray(&q.pred, FQSize)
	for i := 0; i < FQSize; i++ {
		s.RegisterPacked("fq.pc", KindLatch, ClassControl, pc+i, 48)
		s.RegisterPacked("fq.word", KindLatch, ClassControl, word+i, 32)
		s.RegisterPacked("fq.pred", KindLatch, ClassControl, pred+i, fqPredBits)
	}
	s.Register("fq.head", KindLatch, ClassControl, &q.head, 5)
	s.Register("fq.count", KindLatch, ClassControl, &q.count, 6)
}

func (q *fetchQueue) reset() {
	clear(q.pc)
	clear(q.word)
	clear(q.pred)
	q.head, q.count = 0, 0
}

func (q *fetchQueue) full() bool  { return q.count >= FQSize }
func (q *fetchQueue) empty() bool { return q.count == 0 }

func (q *fetchQueue) push(pc, word, pred uint64) {
	if q.full() {
		return
	}
	idx := (q.head + q.count) % FQSize
	q.pc[idx] = pc
	q.word[idx] = word
	q.pred[idx] = pred
	q.count++
}

func (q *fetchQueue) pop() (pc, word, pred uint64, ok bool) {
	if q.empty() {
		return 0, 0, 0, false
	}
	idx := q.head % FQSize
	pc, word, pred = q.pc[idx], q.word[idx], q.pred[idx]
	q.head = (q.head + 1) % FQSize
	q.count--
	return pc, word, pred, true
}

// ROB flag bits.
const (
	robValid      = 1 << 0
	robCompleted  = 1 << 1
	robHasDest    = 1 << 2
	robIsStore    = 1 << 3
	robIsLoad     = 1 << 4
	robIsBranch   = 1 << 5
	robIsCond     = 1 << 6
	robPredTaken  = 1 << 7
	robActTaken   = 1 << 8
	robHighConf   = 1 << 9
	robFetchFault = 1 << 10
	robHalt       = 1 << 11
	robExcValid   = 1 << 12
	robMispredict = 1 << 13
	// bits 16..18 hold the exception kind, bits 24..33 the fetch-time
	// global branch history the prediction was made with.
	robExcShift  = 16
	robHistShift = 24
	robFlagBits  = 34
)

// reorderBuffer is the 64-entry ROB. The aux word packs the store-queue
// index (or, for loads, the STQ tail snapshot used for disambiguation) in
// its low byte and the predicted target above it.
//
// The writer list below is the audited ownership matrix of the pipeline
// stages entitled to drive ROB latches; restorelint rejects writes from
// anywhere else.
//
//restorelint:writers doRename dispatchOne doWriteback retire commitStore executeALU executeLoad executeStore executeBranch raiseAt squashToCount
type reorderBuffer struct {
	ctl      []uint64 // packed control word (decode latches)
	pc       []uint64
	flags    []uint64
	physDest []uint64
	oldPhys  []uint64
	archDest []uint64
	result   []uint64 // actual branch target / memory address / exception address
	aux      []uint64 // stq index (low 8) | predicted target << 8

	head  uint64
	count uint64
}

func (r *reorderBuffer) register(s *StateSpace) {
	ctl := s.BindArray(&r.ctl, ROBSize)
	pc := s.BindArray(&r.pc, ROBSize)
	flags := s.BindArray(&r.flags, ROBSize)
	physDest := s.BindArray(&r.physDest, ROBSize)
	oldPhys := s.BindArray(&r.oldPhys, ROBSize)
	archDest := s.BindArray(&r.archDest, ROBSize)
	result := s.BindArray(&r.result, ROBSize)
	aux := s.BindArray(&r.aux, ROBSize)
	for i := 0; i < ROBSize; i++ {
		s.RegisterPacked("rob.ctl", KindLatch, ClassControl, ctl+i, ctlBits)
		s.RegisterPacked("rob.pc", KindLatch, ClassControl, pc+i, 48)
		s.RegisterPacked("rob.flags", KindLatch, ClassControl, flags+i, robFlagBits)
		s.RegisterPacked("rob.physDest", KindLatch, ClassControl, physDest+i, 7)
		s.RegisterPacked("rob.oldPhys", KindLatch, ClassControl, oldPhys+i, 7)
		s.RegisterPacked("rob.archDest", KindLatch, ClassControl, archDest+i, 5)
		s.RegisterPacked("rob.result", KindLatch, ClassData, result+i, 48)
		s.RegisterPacked("rob.aux", KindLatch, ClassControl, aux+i, 56)
	}
	s.Register("rob.head", KindLatch, ClassControl, &r.head, 6)
	s.Register("rob.count", KindLatch, ClassControl, &r.count, 7)
}

func (r *reorderBuffer) reset() {
	clear(r.ctl)
	clear(r.pc)
	clear(r.flags)
	clear(r.physDest)
	clear(r.oldPhys)
	clear(r.archDest)
	clear(r.result)
	clear(r.aux)
	r.head, r.count = 0, 0
}

func (r *reorderBuffer) full() bool { return r.count >= ROBSize }

// pos converts a ROB slot index into its distance from the head; entries
// with pos >= count are not live.
func (r *reorderBuffer) pos(idx uint64) uint64 {
	return (idx - r.head) % ROBSize
}

func (r *reorderBuffer) alloc() (uint64, bool) {
	if r.full() {
		return 0, false
	}
	idx := (r.head + r.count) % ROBSize
	r.count++
	return idx, true
}

// Scheduler flag bits.
const (
	schValid   = 1 << 0
	schSrc1    = 1 << 1 // src1 present
	schSrc2    = 1 << 2
	schSrc3    = 1 << 3
	schIsLoad  = 1 << 4
	schIsStore = 1 << 5
	schIsBr    = 1 << 6
	schIsMul   = 1 << 7
	schFlgBits = 8
)

// scheduler is the 32-entry out-of-order issue window. Source operands are
// physical-register tags; readiness is checked against the register file's
// ready bits every cycle (the wakeup CAM).
//
//restorelint:writers fillScheduler execute executeALU executeLoad executeStore executeBranch scheduleWriteback squashToCount
type scheduler struct {
	flags  []uint64
	robIdx []uint64
	src1   []uint64
	src2   []uint64
	src3   []uint64 // previous dest mapping, for conditional moves
}

func (sc *scheduler) register(s *StateSpace) {
	flags := s.BindArray(&sc.flags, SchedSize)
	robIdx := s.BindArray(&sc.robIdx, SchedSize)
	src1 := s.BindArray(&sc.src1, SchedSize)
	src2 := s.BindArray(&sc.src2, SchedSize)
	src3 := s.BindArray(&sc.src3, SchedSize)
	for i := 0; i < SchedSize; i++ {
		s.RegisterPacked("sched.flags", KindLatch, ClassControl, flags+i, schFlgBits)
		s.RegisterPacked("sched.robIdx", KindLatch, ClassControl, robIdx+i, 6)
		s.RegisterPacked("sched.src1", KindLatch, ClassControl, src1+i, 7)
		s.RegisterPacked("sched.src2", KindLatch, ClassControl, src2+i, 7)
		s.RegisterPacked("sched.src3", KindLatch, ClassControl, src3+i, 7)
	}
}

func (sc *scheduler) reset() {
	clear(sc.flags)
	clear(sc.robIdx)
	clear(sc.src1)
	clear(sc.src2)
	clear(sc.src3)
}

func (sc *scheduler) alloc() (int, bool) {
	for i := range sc.flags {
		if sc.flags[i]&schValid == 0 {
			return i, true
		}
	}
	return 0, false
}

// STQ flag bits.
const (
	stqValid    = 1 << 0
	stqReady    = 1 << 1
	stqIsSTL    = 1 << 2
	stqExcValid = 1 << 3
	stqExcShift = 4
	stqFlgBits  = 7
)

// storeQueue holds in-flight stores in program order between rename and
// commit; committed stores drain to memory through the (journalled)
// checkpoint domain.
//
//restorelint:writers dispatchOne executeStore commitStore squashToCount
type storeQueue struct {
	addr   []uint64
	data   []uint64
	flags  []uint64
	robIdx []uint64 // owning ROB entry, for age comparison

	head  uint64
	count uint64
}

func (q *storeQueue) register(s *StateSpace) {
	addr := s.BindArray(&q.addr, STQSize)
	data := s.BindArray(&q.data, STQSize)
	flags := s.BindArray(&q.flags, STQSize)
	robIdx := s.BindArray(&q.robIdx, STQSize)
	for i := 0; i < STQSize; i++ {
		s.RegisterPacked("stq.addr", KindLatch, ClassData, addr+i, 48)
		s.RegisterPacked("stq.data", KindLatch, ClassData, data+i, 64)
		s.RegisterPacked("stq.flags", KindLatch, ClassControl, flags+i, stqFlgBits)
		s.RegisterPacked("stq.robIdx", KindLatch, ClassControl, robIdx+i, 6)
	}
	s.Register("stq.head", KindLatch, ClassControl, &q.head, 4)
	s.Register("stq.count", KindLatch, ClassControl, &q.count, 5)
}

func (q *storeQueue) reset() {
	clear(q.addr)
	clear(q.data)
	clear(q.flags)
	clear(q.robIdx)
	q.head, q.count = 0, 0
}

func (q *storeQueue) full() bool { return q.count >= STQSize }

func (q *storeQueue) alloc() (uint64, bool) {
	if q.full() {
		return 0, false
	}
	idx := (q.head + q.count) % STQSize
	q.flags[idx] = stqValid
	q.addr[idx] = 0
	q.data[idx] = 0
	q.count++
	return idx, true
}

// LDQ flag bits.
const (
	ldqValid   = 1 << 0
	ldqIssued  = 1 << 1
	ldqFwd     = 1 << 2 // value was forwarded from an older store
	ldqSize8   = 1 << 3 // 8-byte access (else 4)
	ldqFlgBits = 4
)

// loadQueue tracks in-flight loads in program order (Figure 3's LDQ). Its
// job under memory-dependence speculation is violation detection: a
// resolving store searches it for younger loads that already read the
// location.
//
//restorelint:writers dispatchOne doCommit executeLoad squashToCount
type loadQueue struct {
	addr   []uint64
	robIdx []uint64
	fwdRob []uint64 // forwarding store's ROB entry, when ldqFwd
	flags  []uint64

	head  uint64
	count uint64
}

func (q *loadQueue) register(s *StateSpace) {
	addr := s.BindArray(&q.addr, LDQSize)
	robIdx := s.BindArray(&q.robIdx, LDQSize)
	fwdRob := s.BindArray(&q.fwdRob, LDQSize)
	flags := s.BindArray(&q.flags, LDQSize)
	for i := 0; i < LDQSize; i++ {
		s.RegisterPacked("ldq.addr", KindLatch, ClassData, addr+i, 48)
		s.RegisterPacked("ldq.robIdx", KindLatch, ClassControl, robIdx+i, 6)
		s.RegisterPacked("ldq.fwdRob", KindLatch, ClassControl, fwdRob+i, 6)
		s.RegisterPacked("ldq.flags", KindLatch, ClassControl, flags+i, ldqFlgBits)
	}
	s.Register("ldq.head", KindLatch, ClassControl, &q.head, 4)
	s.Register("ldq.count", KindLatch, ClassControl, &q.count, 5)
}

func (q *loadQueue) reset() {
	clear(q.addr)
	clear(q.robIdx)
	clear(q.fwdRob)
	clear(q.flags)
	q.head, q.count = 0, 0
}

func (q *loadQueue) full() bool { return q.count >= LDQSize }

func (q *loadQueue) alloc() (uint64, bool) {
	if q.full() {
		return 0, false
	}
	idx := (q.head + q.count) % LDQSize
	q.flags[idx] = ldqValid
	q.addr[idx] = 0
	q.fwdRob[idx] = 0
	q.count++
	return idx, true
}

// RegMask is a set of physical registers, one bit per register.
type RegMask [PhysRegs / 64]uint64

// Has reports whether physical register tag is in the set.
func (m *RegMask) Has(tag uint64) bool {
	tag %= PhysRegs
	return m[tag/64]&(1<<(tag%64)) != 0
}

// regFile is the merged physical register file (Figure 3's "Register File"
// SRAM) plus its ready scoreboard.
type regFile struct {
	// val is reached only through read, write and flipBit, so that marking
	// sees every access the machine makes to a register's value.
	val   []uint64 //restorelint:private
	ready []uint64

	// touched, when non-nil, collects every register read or written
	// (Pipeline.MarkRegAccess). It is not machine state: Clone and
	// ResetFrom leave it nil.
	touched *RegMask
	first   int // element index of prf.val[0] in the StateSpace
}

func (f *regFile) register(s *StateSpace) {
	f.first = len(s.elems)
	val := s.BindArray(&f.val, PhysRegs)
	ready := s.BindArray(&f.ready, PhysRegs/64)
	for i := 0; i < PhysRegs; i++ {
		s.RegisterPacked("prf.val", KindSRAM, ClassData, val+i, 64)
	}
	for i := 0; i < PhysRegs/64; i++ {
		s.RegisterPacked("prf.ready", KindLatch, ClassControl, ready+i, 64)
	}
}

func (f *regFile) isReady(tag uint64) bool {
	tag %= PhysRegs
	return f.ready[tag/64]&(1<<(tag%64)) != 0
}

func (f *regFile) setReady(tag uint64, rdy bool) {
	tag %= PhysRegs
	if rdy {
		f.ready[tag/64] |= 1 << (tag % 64)
	} else {
		f.ready[tag/64] &^= 1 << (tag % 64)
	}
}

func (f *regFile) read(tag uint64) uint64 {
	tag %= PhysRegs
	f.touch(tag)
	return f.val[tag]
}

func (f *regFile) write(tag, v uint64) {
	tag %= PhysRegs
	f.touch(tag)
	f.val[tag] = v
}

// touch marks a register access while marking is on.
func (f *regFile) touch(tag uint64) {
	if f.touched != nil {
		f.touched[tag/64] |= 1 << (tag % 64)
	}
}

// flipBit inverts one bit of a physical register — the fault-model entry
// point for directed corruption.
func (f *regFile) flipBit(tag uint64, bit uint) {
	f.val[tag%PhysRegs] ^= 1 << (bit % 64)
}

// aliasTable maps architectural to physical registers (the Spec/Arch RATs
// of Figure 3, SRAM arrays).
type aliasTable struct {
	m []uint64
}

func (t *aliasTable) register(s *StateSpace, name string) {
	m := s.BindArray(&t.m, 32)
	for i := 0; i < 32; i++ {
		s.RegisterPacked(name, KindSRAM, ClassControl, m+i, 7)
	}
}

func (t *aliasTable) get(r uint64) uint64 { return t.m[r%32] % PhysRegs }
func (t *aliasTable) set(r, phys uint64)  { t.m[r%32] = phys % PhysRegs }

// freeList is the physical-register free pool, stored as a bit vector
// (Figure 3's Spec/Arch free lists collapse into one recomputable pool in
// this model; recovery rebuilds it from the surviving ROB contents).
//
//restorelint:writers squashToCount
type freeList struct {
	bits []uint64
}

func (f *freeList) register(s *StateSpace) {
	bits := s.BindArray(&f.bits, PhysRegs/64)
	for i := 0; i < PhysRegs/64; i++ {
		s.RegisterPacked("freelist", KindSRAM, ClassControl, bits+i, 64)
	}
}

func (f *freeList) reset() { clear(f.bits) }

// alloc takes the lowest free register.
func (f *freeList) alloc() (uint64, bool) {
	for w := range f.bits {
		if f.bits[w] == 0 {
			continue
		}
		b := bits.TrailingZeros64(f.bits[w])
		f.bits[w] &^= 1 << b
		return uint64(w*64 + b), true
	}
	return 0, false
}

func (f *freeList) free(tag uint64) {
	tag %= PhysRegs
	f.bits[tag/64] |= 1 << (tag % 64)
}

// execWindow models the execution-unit pipeline registers: results computed
// at issue that are still in flight toward writeback. Timing metadata
// (completion cycle, busy flag) is simulator bookkeeping, but the value and
// destination tags are real latches and injectable.
const execSlots = 16

//restorelint:writers scheduleWriteback
type execWindow struct {
	val []uint64
	tag []uint64 // physical destination; bit 7 set = no destination
	rob []uint64

	busy   [execSlots]bool   // not injectable: scheduling metadata
	doneAt [execSlots]uint64 //restorelint:ignore stateregister — completion timing, scheduling metadata
}

const execNoDest = 1 << 7

func (e *execWindow) register(s *StateSpace) {
	val := s.BindArray(&e.val, execSlots)
	tag := s.BindArray(&e.tag, execSlots)
	rob := s.BindArray(&e.rob, execSlots)
	for i := 0; i < execSlots; i++ {
		s.RegisterPacked("exec.val", KindLatch, ClassData, val+i, 64)
		s.RegisterPacked("exec.tag", KindLatch, ClassControl, tag+i, 8)
		s.RegisterPacked("exec.rob", KindLatch, ClassControl, rob+i, 6)
	}
}

func (e *execWindow) reset() {
	clear(e.val)
	clear(e.tag)
	clear(e.rob)
	e.busy = [execSlots]bool{}
	e.doneAt = [execSlots]uint64{}
}

func (e *execWindow) alloc() (int, bool) {
	for i := range e.busy {
		if !e.busy[i] {
			return i, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// copyFrom: scalar/metadata state copies for Pipeline.ResetFrom. The array
// contents of every structure live in the StateSpace's packed backing and
// are re-imaged with one copy (StateSpace.copyPackedFrom); these methods
// carry only what lives outside it — head/count pointers and the exec
// window's scheduling metadata — so a structure held wholly in the backing
// (scheduler, register file, alias tables, free list) has none. Routing the
// copies through owner methods
// keeps the statemut write discipline intact: ResetFrom rewrites every
// registered word, and these are the owners entitled to do that.

func (q *fetchQueue) copyFrom(src *fetchQueue) {
	q.head, q.count = src.head, src.count
}

func (r *reorderBuffer) copyFrom(src *reorderBuffer) {
	r.head, r.count = src.head, src.count
}

func (q *storeQueue) copyFrom(src *storeQueue) {
	q.head, q.count = src.head, src.count
}

func (q *loadQueue) copyFrom(src *loadQueue) {
	q.head, q.count = src.head, src.count
}

func (e *execWindow) copyFrom(src *execWindow) {
	e.busy = src.busy
	e.doneAt = src.doneAt
}
