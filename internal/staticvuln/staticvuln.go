// Package staticvuln statically predicts the soft-error vulnerability of a
// program, reproducing by analysis what internal/inject measures by
// fault-injection campaign.
//
// The analysis follows the structure of the paper's Section 3: a transient
// fault in a register is architecturally masked unless the corrupted bits
// flow into an address computation (→ exception, thanks to the sparse
// address space), a branch condition or jump target (→ control-flow
// violation), a store (→ memory divergence) or long-lived architectural
// state (→ register divergence). The pipeline is
//
//	CFG construction        (cfg.go)     — basic blocks, natural loops,
//	                                       jump-table recovery
//	forward address absint  (absint.go)  — where does each load/store point,
//	                                       which address-bit flips fault
//	backward bit liveness   (liveness.go)— per-register, per-bit, per-class
//	                                       ACE facts with latency bounds
//	aggregation             (report.go)  — AVF and symptom distribution
//	                                       weighted by an execution profile
//
// A result bit that reaches no symptom class is un-ACE: the analysis
// guarantees every architectural effect of flipping it washes out, so the
// dynamic campaign must classify it as masked. Live verdicts are
// conservative approximations — a bit the analysis calls live may still be
// dynamically masked (value-dependent masking is invisible statically), so
// the static masked fraction is a lower bound that tracks the measured one.
package staticvuln

import (
	"fmt"

	"repro/internal/workload"
)

// Symptom is the statically predicted outcome class of a bit flip, matching
// the dynamic campaign's categories (inject.VMCategory).
type Symptom int

const (
	SymMasked Symptom = iota
	SymException
	SymCFV
	SymMem
	SymRegister
)

func (s Symptom) String() string {
	switch s {
	case SymMasked:
		return "masked"
	case SymException:
		return "exception"
	case SymCFV:
		return "cfv"
	case SymMem:
		return "mem"
	case SymRegister:
		return "register"
	}
	return fmt.Sprintf("Symptom(%d)", int(s))
}

// Symptom classes indexed inside liveness facts. Masked is the absence of
// all of them and needs no slot.
const (
	clsException = iota
	clsCFV
	clsMem
	clsRegister
	numClasses
)

// The analysis constants.
const (
	// profileSkip and profileCount shape the profile run: the injection
	// campaign's warm-up is skipped, then this many instructions are
	// tallied.
	profileSkip  = 5000
	profileCount = 30000

	// slotArea is the per-segment byte offset below which constant-address
	// control slots are assumed not to alias indexed accesses (the kernels'
	// control-block convention).
	slotArea = 64

	// maxRounds bounds the backward fixpoint.
	maxRounds = 256
)

// Analyze runs the full static vulnerability analysis on a program. Its
// weights come from a fault-free profile run; when that is not possible the
// loop-depth estimate is used.
func Analyze(p *workload.Program) (*Report, error) {
	g, err := buildCFG(p)
	if err != nil {
		return nil, err
	}
	ab := runAbsint(g, newLayout(p))

	lv := newLiveness(g, ab)
	if err := lv.solve(); err != nil {
		return nil, err
	}

	weights, err := Profile(p, profileSkip, profileCount)
	if err != nil {
		weights = staticWeights(g, lv.reach)
	}

	rep := &Report{Program: p.Name, Insts: make([]InstReport, len(g.insts))}
	for i := range g.insts {
		inst := g.insts[i]
		r := InstReport{Index: i, PC: g.pc(i), Inst: inst, Weight: weights[i]}
		if d, ok := inst.Dest(); ok {
			r.Dest = d
			r.HasDest = true
			f := &lv.dest[i]
			r.Exception = f.mask[clsException]
			r.CFV = f.mask[clsCFV]
			r.Mem = f.mask[clsMem]
			r.Register = f.mask[clsRegister]
			r.Latency = f.minDist()
		}
		rep.Insts[i] = r
	}
	return rep, nil
}
