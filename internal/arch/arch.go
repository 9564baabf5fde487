// Package arch implements the architectural (ISA-level) simulator: a
// functional interpreter for the instruction set in internal/isa over a
// memory image from internal/mem.
//
// The simulator plays two roles in the reproduction, mirroring Section 4 of
// the paper. First, it is the "virtual machine" used for the software-level
// fault-injection campaign of Figure 2, where faults are injected directly
// into architectural state to study error-to-symptom propagation free of any
// microarchitecture. Second, it is the golden architectural reference the
// pipeline trials are compared against: every instruction the pipeline
// commits is checked against the event the architectural simulator produces
// for the same dynamic instruction.
package arch

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// ExceptionKind enumerates the ISA-defined exceptions, the paper's primary
// soft-error symptom (Section 3.2.1).
type ExceptionKind uint8

// Exceptions.
const (
	ExcNone ExceptionKind = iota
	// ExcAccessFault is a memory access to an unmapped or protected page,
	// including instruction fetch. The dominant symptom in the paper.
	ExcAccessFault
	// ExcAlignment is a misaligned load or store.
	ExcAlignment
	// ExcOverflow is signed overflow in a trapping arithmetic op.
	ExcOverflow
	// ExcIllegalInstruction is an undecodable instruction word.
	ExcIllegalInstruction
)

// String returns a short name for the exception kind.
func (e ExceptionKind) String() string {
	switch e {
	case ExcNone:
		return "none"
	case ExcAccessFault:
		return "access-fault"
	case ExcAlignment:
		return "alignment"
	case ExcOverflow:
		return "overflow"
	case ExcIllegalInstruction:
		return "illegal-instruction"
	}
	return fmt.Sprintf("exception(%d)", uint8(e))
}

// Event describes the architectural effects of one executed instruction. It
// carries everything a comparator needs: the instruction's identity, its
// register result, its memory effect, and its control-flow outcome.
type Event struct {
	PC   uint64
	Inst isa.Inst

	// Exception, if not ExcNone, means the instruction faulted before
	// completing; no architectural state was modified and NextPC == PC.
	Exception ExceptionKind
	ExcAddr   uint64 // faulting address for memory exceptions

	// Register result.
	DestValid bool
	Dest      isa.Reg
	DestVal   uint64

	// Memory effect.
	IsLoad    bool
	IsStore   bool
	MemAddr   uint64
	StoreVal  uint64
	StoreSize uint8

	// Control flow.
	IsBranch bool
	Taken    bool
	NextPC   uint64

	// Halted is set when the instruction was HALT.
	Halted bool
}

// ErrStopped is returned by Run when the simulator cannot make progress
// because it previously halted or faulted.
var ErrStopped = errors.New("arch: simulator stopped")

// Sim is the architectural simulator. Fields are exported so fault-injection
// campaigns can corrupt architectural state directly, which is exactly the
// Figure 2 fault model.
type Sim struct {
	Regs [isa.NumRegs]uint64
	PC   uint64
	Mem  *mem.Memory

	// InstRet counts retired (successfully executed) instructions.
	InstRet uint64
	// Halted is set once a HALT instruction executes.
	Halted bool
	// Excepted is set once an instruction faults; the simulator stops.
	Excepted bool
	// LastException records the exception that stopped the simulator.
	LastException ExceptionKind

	// DCache, when non-nil, memoises isa.Decode over the workload's
	// static code image (campaigns build it once per program). Not
	// architectural state: lookups verify the fetched word, so corrupted
	// or rewritten code decodes afresh and behaviour is unchanged.
	DCache *isa.DecodeCache
}

// New returns a simulator starting at entry over the given memory image.
func New(m *mem.Memory, entry uint64) *Sim {
	return &Sim{Mem: m, PC: entry}
}

// Reg reads an architectural register, honouring the hardwired zero.
func (s *Sim) Reg(r isa.Reg) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return s.Regs[r&31]
}

// SetReg writes an architectural register; writes to the zero register are
// discarded.
func (s *Sim) SetReg(r isa.Reg, v uint64) {
	if r == isa.RegZero {
		return
	}
	s.Regs[r&31] = v
}

// Stopped reports whether the simulator can no longer step.
func (s *Sim) Stopped() bool { return s.Halted || s.Excepted }

// Step executes one instruction and returns its architectural event. On an
// exception the event records the fault, architectural state is unchanged,
// and the simulator stops (precise exception semantics: the program cannot
// continue without a handler, per Section 3.2.1).
func (s *Sim) Step() Event {
	var ev Event
	s.StepInto(&ev)
	return ev
}

// StepInto is Step writing the event into *ev, which it overwrites whole.
// Loops that step many instructions reuse one Event instead of copying a
// fresh one out of every step.
//
// StepInto is the VM-level campaign's golden and trial inner loop, annotated
// hot: it must stay allocation-free (hotpathalloc proves it; the campaign
// benchmarks pin 0 allocs/op dynamically).
//
//restorelint:hotpath
func (s *Sim) StepInto(ev *Event) {
	*ev = Event{PC: s.PC}
	if s.Stopped() {
		ev.Exception = s.LastException
		ev.Halted = s.Halted
		return
	}

	word, err := s.Mem.FetchWord(s.PC)
	if err != nil {
		s.except(ev, ExcAccessFault, s.PC)
		return
	}
	inst, cached := isa.Inst{}, false
	if s.DCache != nil {
		inst, cached = s.DCache.Lookup(s.PC, word)
	}
	if !cached {
		inst = isa.Decode(word)
	}
	ev.Inst = inst
	nextPC := s.PC + isa.InstBytes

	switch isa.ClassOf(inst.Op) {
	case isa.ClassInvalid:
		s.except(ev, ExcIllegalInstruction, s.PC)
		return

	case isa.ClassNop:
		// Nothing.

	case isa.ClassHalt:
		ev.Halted = true
		s.Halted = true
		s.InstRet++
		ev.NextPC = s.PC
		return

	case isa.ClassALU, isa.ClassMul:
		res, exc := s.evalOperate(inst)
		if exc != ExcNone {
			s.except(ev, exc, s.PC)
			return
		}
		dest, _ := inst.Dest()
		write := true
		if inst.Op == isa.OpCMOVEQ || inst.Op == isa.OpCMOVNE {
			write = isa.EvalCondMove(inst.Op, s.Reg(inst.Ra))
			if write {
				res = s.operandB(inst)
			} else {
				res = s.Reg(dest) // value unchanged
			}
		}
		if write {
			s.SetReg(dest, res)
		}
		ev.DestValid = true
		ev.Dest = dest
		ev.DestVal = s.Reg(dest)

	case isa.ClassLoad:
		addr := s.Reg(inst.Rb) + uint64(int64(inst.Disp))
		ev.IsLoad = true
		ev.MemAddr = addr
		val, exc, excAddr := s.load(inst, addr)
		if exc != ExcNone {
			s.except(ev, exc, excAddr)
			return
		}
		s.SetReg(inst.Ra, val)
		ev.DestValid = true
		ev.Dest = inst.Ra
		ev.DestVal = s.Reg(inst.Ra)

	case isa.ClassStore:
		addr := s.Reg(inst.Rb) + uint64(int64(inst.Disp))
		val := s.Reg(inst.Ra)
		ev.IsStore = true
		ev.MemAddr = addr
		ev.StoreVal = val
		ev.StoreSize = uint8(inst.MemBytes())
		if exc, excAddr := s.store(inst, addr, val); exc != ExcNone {
			s.except(ev, exc, excAddr)
			return
		}

	case isa.ClassBranch:
		ev.IsBranch = true
		taken, target, link, hasLink, linkReg := s.evalBranch(inst)
		if hasLink {
			s.SetReg(linkReg, link)
			ev.DestValid = true
			ev.Dest = linkReg
			ev.DestVal = s.Reg(linkReg)
		}
		ev.Taken = taken
		if taken {
			nextPC = target
		}
	}

	s.PC = nextPC
	s.InstRet++
	ev.NextPC = nextPC
}

func (s *Sim) except(ev *Event, kind ExceptionKind, addr uint64) {
	ev.Exception = kind
	ev.ExcAddr = addr
	ev.NextPC = ev.PC
	s.Excepted = true
	s.LastException = kind
}

func (s *Sim) operandB(inst isa.Inst) uint64 {
	if inst.UseLit {
		return uint64(inst.Lit)
	}
	return s.Reg(inst.Rb)
}

func (s *Sim) evalOperate(inst isa.Inst) (uint64, ExceptionKind) {
	switch inst.Op {
	case isa.OpLDA:
		return s.Reg(inst.Rb) + uint64(int64(inst.Disp)), ExcNone
	case isa.OpLDAH:
		return s.Reg(inst.Rb) + uint64(int64(inst.Disp))<<16, ExcNone
	case isa.OpCMOVEQ, isa.OpCMOVNE:
		return 0, ExcNone // handled by caller
	}
	res, overflow := isa.EvalOperate(inst.Op, s.Reg(inst.Ra), s.operandB(inst))
	if overflow && inst.TrapsOverflow() {
		return 0, ExcOverflow
	}
	return res, ExcNone
}

func (s *Sim) load(inst isa.Inst, addr uint64) (val uint64, exc ExceptionKind, excAddr uint64) {
	switch inst.Op {
	case isa.OpLDQ:
		v, err := s.Mem.ReadQ(addr)
		if err != nil {
			return 0, memExc(err), addr
		}
		return v, ExcNone, 0
	case isa.OpLDL:
		v, err := s.Mem.ReadL(addr)
		if err != nil {
			return 0, memExc(err), addr
		}
		return uint64(int64(int32(v))), ExcNone, 0
	}
	return 0, ExcIllegalInstruction, addr
}

func (s *Sim) store(inst isa.Inst, addr, val uint64) (exc ExceptionKind, excAddr uint64) {
	switch inst.Op {
	case isa.OpSTQ:
		if err := s.Mem.WriteQ(addr, val); err != nil {
			return memExc(err), addr
		}
		return ExcNone, 0
	case isa.OpSTL:
		if err := s.Mem.WriteL(addr, uint32(val)); err != nil {
			return memExc(err), addr
		}
		return ExcNone, 0
	}
	return ExcIllegalInstruction, addr
}

func (s *Sim) evalBranch(inst isa.Inst) (taken bool, target, link uint64, hasLink bool, linkReg isa.Reg) {
	retAddr := s.PC + isa.InstBytes
	switch inst.Op {
	case isa.OpBR, isa.OpBSR:
		return true, isa.BranchTarget(s.PC, inst.Disp), retAddr, true, inst.Ra
	case isa.OpJMP, isa.OpJSR, isa.OpRET:
		return true, s.Reg(inst.Rb) &^ 3, retAddr, true, inst.Rc
	default:
		taken = isa.EvalCondBranch(inst.Op, s.Reg(inst.Ra))
		return taken, isa.BranchTarget(s.PC, inst.Disp), 0, false, 0
	}
}

// MemExc converts a memory fault into its ISA exception.
func memExc(err error) ExceptionKind {
	var f *mem.Fault
	//restorelint:allowalloc -- exception path: runs only when a trial already faulted, never in steady state
	if errors.As(err, &f) && f.Kind == mem.FaultAlign {
		return ExcAlignment
	}
	return ExcAccessFault
}

// Run executes up to n instructions, stopping early on HALT or exception.
// It returns the number of instructions retired and the last event.
func (s *Sim) Run(n uint64) (uint64, Event, error) {
	if s.Stopped() {
		return 0, Event{}, ErrStopped
	}
	var (
		executed uint64
		last     Event
	)
	for executed < n {
		last = s.Step()
		if last.Exception != ExcNone {
			return executed, last, nil
		}
		executed++
		if last.Halted {
			break
		}
	}
	return executed, last, nil
}

// Snapshot captures the register state and PC (memory is snapshotted
// separately via the memory journal).
type Snapshot struct {
	Regs    [isa.NumRegs]uint64
	PC      uint64
	InstRet uint64
}

// Snapshot returns a copy of the simulator's register state.
func (s *Sim) Snapshot() Snapshot {
	return Snapshot{Regs: s.Regs, PC: s.PC, InstRet: s.InstRet}
}

// Restore resets register state to the snapshot and clears stop conditions.
func (s *Sim) Restore(snap Snapshot) {
	s.Regs = snap.Regs
	s.PC = snap.PC
	s.InstRet = snap.InstRet
	s.Halted = false
	s.Excepted = false
	s.LastException = ExcNone
}
