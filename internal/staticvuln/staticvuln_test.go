package staticvuln

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
)

func TestKbitsTransfers(t *testing.T) {
	c5 := kbConst(5)
	if !c5.ok() || c5.val() != 5 {
		t.Fatalf("kbConst(5) = %+v", c5)
	}
	cases := []struct {
		name string
		op   isa.Op
		a, b kbits
		want kbits
	}{
		{"and const", isa.OpAND, kbTop, kbConst(0xFF), kbits{zero: ^uint64(0xFF)}},
		{"bis const", isa.OpBIS, kbTop, kbConst(0xF0), kbits{one: 0xF0}},
		{"xor consts", isa.OpXOR, kbConst(0xFF), kbConst(0x0F), kbConst(0xF0)},
		{"sll", isa.OpSLL, kbits{zero: ^uint64(0xFF)}, kbConst(8), kbits{zero: ^uint64(0xFF00)}},
		{"srl", isa.OpSRL, kbTop, kbConst(48), kbits{zero: ^uint64(0xFFFF)}},
		{"cmp", isa.OpCMPEQ, kbTop, kbTop, kbits{zero: ^uint64(1)}},
		{"bic", isa.OpBIC, kbTop, kbConst(0x0F), kbits{zero: 0x0F}},
	}
	for _, tc := range cases {
		if got := kbEval(tc.op, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: kbEval = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// Width-bounded addition: two values below 2^10 sum below 2^11.
	sum := kbAdd(kbits{zero: ^uint64(0x3FF)}, kbits{zero: ^uint64(0x3FF)})
	if sum.zero&(1<<5) != 0 {
		t.Errorf("kbAdd should not know low bits: %+v", sum)
	}
	if sum.zero&(1<<20) == 0 {
		t.Errorf("kbAdd should bound the width: %+v", sum)
	}
}

func TestSrcDemand(t *testing.T) {
	lit := func(op isa.Op, v uint8) isa.Inst {
		return isa.Inst{Op: op, Ra: 1, UseLit: true, Lit: v, Rc: 2}
	}
	rr := func(op isa.Op) isa.Inst { return isa.Inst{Op: op, Ra: 1, Rb: 2, Rc: 3} }

	// Addition preserves bit positions.
	if got := srcDemand(rr(isa.OpADDQ), true, 1<<40, kbTop, kbTop); got != 1<<40 {
		t.Errorf("addq demand = %#x", got)
	}
	// Multiplication scrambles them downward.
	if got := srcDemand(rr(isa.OpMULQ), true, 1<<40, kbTop, kbTop); got != (uint64(1)<<41)-1 {
		t.Errorf("mulq demand = %#x", got)
	}
	// AND with a literal mask absorbs flips of masked-out bits.
	if got := srcDemand(lit(isa.OpAND, 0xF), true, ^uint64(0), kbTop, kbConst(0xF)); got != 0xF {
		t.Errorf("and demand = %#x", got)
	}
	// AND against a value with known-zero high bits: mask-side flips of
	// those bits cannot reach the result.
	hash := kbits{zero: ^uint64(0xFFFF)}
	if got := srcDemand(rr(isa.OpAND), false, ^uint64(0), hash, kbTop); got != 0xFFFF {
		t.Errorf("and mask-side demand = %#x", got)
	}
	// OR: known-one bits of the other side dominate.
	if got := srcDemand(rr(isa.OpBIS), true, ^uint64(0), kbTop, kbits{one: 0xFF}); got != ^uint64(0xFF) {
		t.Errorf("bis demand = %#x", got)
	}
	// Shifts relocate the live window; the amount register matters mod 64.
	if got := srcDemand(lit(isa.OpSRL, 48), true, 0xFFFF, kbTop, kbConst(48)); got != 0xFFFF<<48 {
		t.Errorf("srl value demand = %#x", got)
	}
	if got := srcDemand(rr(isa.OpSLL), false, 0xFF, kbTop, kbTop); got != 0x3F {
		t.Errorf("shift amount demand = %#x", got)
	}
	// Compares collapse onto bit 0 of the result.
	if got := srcDemand(rr(isa.OpCMPEQ), true, 1, kbTop, kbTop); got != ^uint64(0) {
		t.Errorf("cmp live demand = %#x", got)
	}
	if got := srcDemand(rr(isa.OpCMPEQ), true, ^uint64(1), kbTop, kbTop); got != 0 {
		t.Errorf("cmp dead demand = %#x", got)
	}
	// 32-bit ops fold the sign-extended half back onto bit 31.
	if got := srcDemand(rr(isa.OpADDL), true, 1<<40, kbTop, kbTop); got != 1<<31 {
		t.Errorf("addl demand = %#x", got)
	}
	// Zero result-liveness always yields zero demand.
	if got := srcDemand(rr(isa.OpMULQ), true, 0, kbTop, kbTop); got != 0 {
		t.Errorf("dead result demand = %#x", got)
	}
}

const cfgProg = `
.data d 256
.base r16 d
start:
	bsr ra, f
	addq r1, #1, r1
	br start
f:
	addq zero, #5, r2
	ret (ra)
`

func TestCFGShape(t *testing.T) {
	p := asm.MustAssemble("cfgprog", cfgProg)
	g, err := buildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	// Locate blocks by their final instruction.
	var bsrBlock, retBlock, brBlock = -1, -1, -1
	for bi := range g.blocks {
		switch g.insts[g.blocks[bi].end-1].Op {
		case isa.OpBSR:
			bsrBlock = bi
		case isa.OpRET:
			retBlock = bi
		case isa.OpBR:
			brBlock = bi
		}
	}
	if bsrBlock < 0 || retBlock < 0 || brBlock < 0 {
		t.Fatalf("missing blocks: bsr=%d ret=%d br=%d", bsrBlock, retBlock, brBlock)
	}
	// A call forks to the callee and the fallthrough; a return ends its
	// block (the continuation is the caller's fallthrough edge).
	if len(g.blocks[bsrBlock].succs) != 2 {
		t.Errorf("bsr block succs = %v, want 2", g.blocks[bsrBlock].succs)
	}
	if len(g.blocks[retBlock].succs) != 0 {
		t.Errorf("ret block succs = %v, want none", g.blocks[retBlock].succs)
	}
	// The br back edge closes a natural loop around start..br; the .base
	// prologue before the start label stays outside it.
	if g.loopDepth[g.entry] != 0 {
		t.Errorf("entry (prologue) loop depth = %d, want 0", g.loopDepth[g.entry])
	}
	if g.loopDepth[bsrBlock] != 1 {
		t.Errorf("bsr block loop depth = %d, want 1", g.loopDepth[bsrBlock])
	}
	if g.loopDepth[brBlock] != 1 {
		t.Errorf("br block loop depth = %d, want 1", g.loopDepth[brBlock])
	}
}

func TestJumpTableRecovery(t *testing.T) {
	b := workload.NewBuilder("jt")
	tbl := b.AllocData("tbl", make([]byte, 64), mem.PermRead)
	b.PatchCodeAddr(tbl, 0, "case0")
	b.Label("start")
	b.LoadImm(16, tbl)
	b.Load(isa.OpLDQ, 2, 0, 16)
	b.Emit(isa.Inst{Op: isa.OpJSR, Rc: isa.RegRA, Rb: 2})
	b.Branch(isa.OpBR, isa.RegZero, "start")
	b.Label("case0")
	b.OpLit(isa.OpADDQ, isa.RegZero, 1, 1)
	b.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.indirectTargets) == 0 {
		t.Fatal("jump table target not recovered from data segment")
	}
	// The jsr block must list the recovered target as a successor.
	for bi := range g.blocks {
		if g.insts[g.blocks[bi].end-1].Op != isa.OpJSR {
			continue
		}
		found := false
		for _, s := range g.blocks[bi].succs {
			for _, tgt := range g.indirectTargets {
				if s == tgt {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("jsr block succs %v missing indirect target %v",
				g.blocks[bi].succs, g.indirectTargets)
		}
	}
}

// The arraysum shape: an accumulator whose only observable effect is a store
// into a result slot nobody loads. Every bit of the accumulator chain is
// un-ACE; the walking pointer is exception-ACE in its high bits but not in
// the bits that merely shift it inside its mapped segment.
const deadAccProg = `
.data d 4096
.base r16 d
start:
	bis zero, zero, r3
	addq r16, #64, r1
	addq zero, #8, r2
loop:
	ldq r4, 0(r1)
	addq r3, r4, r3
	addq r1, #8, r1
	subq r2, #1, r2
	bgt r2, loop
	stq r3, 8(r16)
	br start
`

func findInst(t *testing.T, rep *Report, match func(isa.Inst) bool) *InstReport {
	t.Helper()
	for i := range rep.Insts {
		if match(rep.Insts[i].Inst) {
			return &rep.Insts[i]
		}
	}
	t.Fatal("instruction not found")
	return nil
}

func TestDeadAccumulator(t *testing.T) {
	p := asm.MustAssemble("deadacc", deadAccProg)
	rep, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	acc := findInst(t, rep, func(i isa.Inst) bool {
		return i.Op == isa.OpADDQ && !i.UseLit && i.Rc == 3
	})
	if acc.ACEMask() != 0 {
		t.Errorf("accumulator ACE mask = %#x, want 0 (store is never loaded)", acc.ACEMask())
	}
	ld := findInst(t, rep, func(i isa.Inst) bool { return i.Op == isa.OpLDQ })
	if ld.ACEMask() != 0 {
		t.Errorf("loaded value ACE mask = %#x, want 0", ld.ACEMask())
	}
	ptr := findInst(t, rep, func(i isa.Inst) bool {
		return i.Op == isa.OpADDQ && i.UseLit && i.Lit == 8 && i.Rc == 1
	})
	if ptr.Exception&(1<<63) == 0 {
		t.Errorf("pointer bit 63 not exception-ACE: %#x", ptr.Exception)
	}
	if ptr.Exception&(1<<5) != 0 {
		t.Errorf("pointer bit 5 exception-ACE despite staying in segment: %#x", ptr.Exception)
	}
	if ptr.ACEMask() == 0 {
		t.Error("pointer fully dead")
	}
	// The loop counter steers the trip count: control-flow ACE.
	ctr := findInst(t, rep, func(i isa.Inst) bool { return i.Op == isa.OpSUBQ })
	if ctr.CFV == 0 {
		t.Errorf("loop counter CFV mask = 0")
	}
}

// The branchy flag shape: a flag that can only be 0 or 1 feeds a zero-test
// branch. Only bit 0 of the flag can change the direction the analysis can
// see; known-zero bits are charged to masked.
const flagProg = `
.data d 4096
.base r16 d
start:
	ldq r5, 64(r16)
	and r5, #1, r6
	bne r6, odd
	addq r7, #1, r7
odd:
	stq r5, 64(r16)
	br start
`

func TestFlagBranchCondition(t *testing.T) {
	p := asm.MustAssemble("flag", flagProg)
	rep, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	flag := findInst(t, rep, func(i isa.Inst) bool { return i.Op == isa.OpAND })
	if flag.CFV != 1 {
		t.Errorf("flag CFV mask = %#x, want bit 0 only", flag.CFV)
	}
	if flag.Latency != 1 {
		t.Errorf("flag latency = %d, want 1 (next instruction branches)", flag.Latency)
	}
	// The loaded value feeds both the flag (bit 0) and the store (live:
	// the slot is reloaded every iteration).
	ld := findInst(t, rep, func(i isa.Inst) bool { return i.Op == isa.OpLDQ })
	if ld.CFV&1 == 0 {
		t.Errorf("loaded value bit 0 should be CFV-ACE: %#x", ld.CFV)
	}
	if ld.ACEMask() == 0 {
		t.Error("stored-and-reloaded value reported dead")
	}
}

// A counter that is never rewritten from anything but itself: corruption
// persists forever, the register-divergence outcome.
const selfLiveProg = `
.data d 4096
.base r16 d
start:
	addq r9, #1, r9
	stq r9, 0(r16)
	br start
`

func TestSelfLiveCounter(t *testing.T) {
	p := asm.MustAssemble("selflive", selfLiveProg)
	rep, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	ctr := findInst(t, rep, func(i isa.Inst) bool { return i.Op == isa.OpADDQ && i.Rc == 9 })
	if ctr.Register != ^uint64(0) {
		t.Errorf("self-perpetuating counter Register mask = %#x, want all bits", ctr.Register)
	}
	for b := uint(0); b < 64; b++ {
		if ctr.ClassOf(b) == SymMasked {
			t.Fatalf("counter bit %d classified masked", b)
		}
	}
}

func TestProfileSamplingWeights(t *testing.T) {
	p := asm.MustAssemble("prof", `
.data d 256
.base r16 d
start:
	addq zero, #1, r1
	stq r1, 0(r16)
	stq r1, 8(r16)
	addq zero, #2, r2
	halt
`)
	w, err := Profile(p, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	var first, second int = -1, -1
	for i, raw := range p.Code {
		inst := isa.Decode(raw)
		if inst.Op == isa.OpADDQ && inst.UseLit && inst.Lit == 1 && inst.Rc == 1 {
			first = i
		}
		if inst.Op == isa.OpADDQ && inst.UseLit && inst.Lit == 2 && inst.Rc == 2 {
			second = i
		}
	}
	if first < 0 || second < 0 {
		t.Fatal("markers not found")
	}
	if w[first] != 1 {
		t.Errorf("first marker weight = %d, want 1", w[first])
	}
	// The two stores write no register: their sampling mass lands on the
	// next register-writing instruction, exactly as the campaign's
	// injection-point walker behaves.
	if w[second] != 3 {
		t.Errorf("second marker weight = %d, want 3 (two stores + itself)", w[second])
	}
	if w[first+1] != 0 || w[first+2] != 0 {
		t.Errorf("store weights = %d,%d, want 0", w[first+1], w[first+2])
	}
}

func TestAnalyzeBenchmarksSane(t *testing.T) {
	for _, b := range workload.Benchmarks() {
		p := workload.MustGenerate(b, workload.Config{Seed: 7, Scale: 0.25})
		rep, err := Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		mf := rep.MaskedFraction(false)
		if mf <= 0 || mf >= 1 {
			t.Errorf("%s: masked fraction %v out of (0,1)", b, mf)
		}
		fr := rep.SymptomFractions(false)
		sum := 0.0
		for _, v := range fr {
			if v < 0 || v > 1 {
				t.Errorf("%s: fraction %v out of range", b, v)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: symptom fractions sum to %v", b, sum)
		}
		if got := fr[SymMasked]; got != mf {
			t.Errorf("%s: SymptomFractions masked %v != MaskedFraction %v", b, got, mf)
		}
		if avf := rep.PerRegisterAVF(false); len(avf) == 0 {
			t.Errorf("%s: empty per-register AVF", b)
		}
		out := rep.Render(false)
		for _, want := range []string{"predicted masked fraction", "exception", "per-register AVF"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: Render output missing %q", b, want)
			}
		}
		// Determinism: a second analysis of the same program agrees.
		rep2, err := Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if rep2.MaskedFraction(false) != mf {
			t.Errorf("%s: non-deterministic masked fraction", b)
		}
	}
}

func TestLow32Restriction(t *testing.T) {
	// One instruction whose only ACE bit is bit 40: under the full 64-bit
	// flip model 63/64 of flips are masked; restricted to the low 32 bits
	// the ACE bit is out of reach and everything is masked.
	rep := &Report{
		Program: "synthetic",
		Insts: []InstReport{{
			HasDest: true, Dest: 5, Weight: 1, Exception: 1 << 40,
		}},
	}
	if got := rep.MaskedFraction(false); got != 63.0/64.0 {
		t.Errorf("full masked fraction = %v, want 63/64", got)
	}
	if got := rep.MaskedFraction(true); got != 1.0 {
		t.Errorf("low32 masked fraction = %v, want 1", got)
	}
	fr := rep.SymptomFractions(false)
	if fr[SymException] != 1.0/64.0 {
		t.Errorf("exception fraction = %v, want 1/64", fr[SymException])
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(&workload.Program{Name: "empty"}); err == nil {
		t.Error("empty program should fail")
	}
}
