// Package protect models parity/ECC protection of pipeline state and the
// policies that place it. It is the only package that knows protection
// domains.
//
// A protection Policy names the state elements to cover and the domain each
// receives: ECC corrects a flip in place, parity detects it on read and
// recovers by a pipeline flush, and in both cases the fault cannot cause
// failure, which is exactly how the paper's hardened-pipeline campaign
// (Figure 6) treats them. A placement is either hand-picked — the paper's
// Section 5.2.2 "low-hanging fruit" (LowHangingFruit: parity on the control
// word latches, ECC on the register file and the other key data stores) —
// or derived by the budgeted optimizer in rank.go from the static bit-level
// vulnerability analysis (internal/staticvuln): the BEC-style loop that
// statically ranks bits by proven vulnerability and spends the check-bit
// budget only where it pays.
//
// Every question "is this element protected?" is one lookup by element
// name, ProtectionOf: the hardened microarchitectural campaign asks it of
// each pre-drawn pick, the offline scorers ask it of plain trials, and
// Survey asks it of every element of a state space. A Policy serializes to
// deterministic JSON for the `restore-sim protect` subcommand.
package protect

import (
	"encoding/json"
	"fmt"

	"repro/internal/pipeline"
)

// Kind records how a policy's placement was chosen.
type Kind uint8

// Policy kinds.
const (
	// KindNone is the empty policy: the unprotected baseline.
	KindNone Kind = iota
	// KindHandPicked is a fixed, human-chosen placement (the paper's
	// low-hanging-fruit set, or any explicit assignment).
	KindHandPicked
	// KindStaticBudget is a placement derived by the budgeted optimizer
	// from a static vulnerability ranking.
	KindStaticBudget
)

// String names the policy kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindHandPicked:
		return "hand-picked"
	case KindStaticBudget:
		return "static-budget"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Assignment covers one named state element with one protection domain.
type Assignment struct {
	Elem string
	Prot Protection
}

// Policy is a named protection placement over the pipeline's state space.
type Policy struct {
	Name string
	Kind Kind
	// BudgetBits is the check-bit budget the optimizer ran under; zero for
	// hand-picked and empty policies.
	BudgetBits uint64
	// Assign lists the protected elements, sorted by element name.
	Assign []Assignment
	// Predicted is the statically predicted coverage: the protected share
	// of the ranking's failure mass. Zero when no ranking produced the
	// policy.
	Predicted float64
}

// LowHangingFruit returns the paper's Section 5.2.2 placement: ECC on the
// SRAM arrays whose data lives long enough to protect cheaply (register
// file, both alias tables, free list), parity on the in-pipeline control
// word latches (decoded instructions in the ROB and scheduler and the raw
// words in the fetch queue). The names are the exact registered StateSpace
// element names, listed in sorted order.
func LowHangingFruit() *Policy {
	return &Policy{Name: "low-hanging-fruit", Kind: KindHandPicked, Assign: []Assignment{
		{Elem: "archRAT", Prot: ECC},
		{Elem: "fq.pc", Prot: Parity},
		{Elem: "fq.word", Prot: Parity},
		{Elem: "freelist", Prot: ECC},
		{Elem: "prf.ready", Prot: ECC},
		{Elem: "prf.val", Prot: ECC},
		{Elem: "rob.ctl", Prot: Parity},
		{Elem: "sched.flags", Prot: Parity},
		{Elem: "sched.robIdx", Prot: Parity},
		{Elem: "sched.src1", Prot: Parity},
		{Elem: "sched.src2", Prot: Parity},
		{Elem: "sched.src3", Prot: Parity},
		{Elem: "specRAT", Prot: ECC},
	}}
}

// ProtectionOf returns the domain the policy assigns to a named element
// (Unprotected when the policy does not cover it). Names match exactly: an
// assignment to "prf.val" covers every word registered as prf.val and
// nothing registered under another name.
func (p *Policy) ProtectionOf(elem string) Protection {
	if p == nil {
		return Unprotected
	}
	for _, a := range p.Assign {
		if a.Elem == elem {
			return a.Prot
		}
	}
	return Unprotected
}

// EqualBudget returns the check-bit overhead of the paper's hand-picked
// placement over a state space — the budget at which static-derived and
// hand-picked policies compare like-for-like.
func EqualBudget(space *pipeline.StateSpace) uint64 {
	return Survey(space, LowHangingFruit()).OverheadBits
}

// policyJSON is the serialized form: stable field names, protection domains
// and kinds as strings, assignments in sorted element order.
type policyJSON struct {
	Name       string       `json:"name"`
	Kind       string       `json:"kind"`
	BudgetBits uint64       `json:"budget_bits,omitempty"`
	Predicted  float64      `json:"predicted_coverage,omitempty"`
	Assign     []assignJSON `json:"assignments"`
}

type assignJSON struct {
	Elem string `json:"elem"`
	Prot string `json:"protection"`
}

// MarshalJSON serializes the policy deterministically: assignments are kept
// sorted by element name, so equal policies are byte-identical.
func (p *Policy) MarshalJSON() ([]byte, error) {
	out := policyJSON{
		Name:       p.Name,
		Kind:       p.Kind.String(),
		BudgetBits: p.BudgetBits,
		Predicted:  p.Predicted,
		Assign:     make([]assignJSON, 0, len(p.Assign)),
	}
	for _, a := range p.Assign {
		out.Assign = append(out.Assign, assignJSON{Elem: a.Elem, Prot: a.Prot.String()})
	}
	return json.Marshal(out)
}
