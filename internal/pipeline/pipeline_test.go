package pipeline

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/workload"
)

func newBenchPipeline(t testing.TB, bench workload.Benchmark, cfg Config) *Pipeline {
	t.Helper()
	prog := workload.MustGenerate(bench, workload.Config{Seed: 42, Scale: 0.25})
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg, m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// lockstep attaches an architectural golden simulator to the pipeline's
// commit stream and fails the test on the first divergence.
func lockstep(t *testing.T, p *Pipeline, prog *workload.Program) *arch.Sim {
	t.Helper()
	gm, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	golden := arch.New(gm, prog.Entry)
	p.CommitHook = func(ev CommitEvent) {
		g := golden.Step()
		if t.Failed() {
			return
		}
		if ev.PC != g.PC {
			t.Fatalf("commit %d: pc=%#x golden=%#x", ev.Index, ev.PC, g.PC)
		}
		if ev.Exception != g.Exception {
			t.Fatalf("commit %d pc=%#x: exception=%v golden=%v",
				ev.Index, ev.PC, ev.Exception, g.Exception)
		}
		if ev.Exception != arch.ExcNone {
			return
		}
		if ev.HasDest && ev.DestArch != isa.RegZero {
			if !g.DestValid || g.Dest != ev.DestArch || g.DestVal != ev.DestVal {
				t.Fatalf("commit %d pc=%#x %v: dest r%d=%#x golden r%d=%#x (valid=%v)",
					ev.Index, ev.PC, ev.Inst, ev.DestArch, ev.DestVal, g.Dest, g.DestVal, g.DestValid)
			}
		}
		if ev.IsStore != g.IsStore {
			t.Fatalf("commit %d pc=%#x: store flag mismatch", ev.Index, ev.PC)
		}
		if ev.IsStore {
			mask := ^uint64(0)
			if ev.StoreSize == 4 {
				mask = 1<<32 - 1
			}
			if ev.MemAddr != g.MemAddr || ev.StoreVal&mask != g.StoreVal&mask {
				t.Fatalf("commit %d pc=%#x: store %#x=%#x golden %#x=%#x",
					ev.Index, ev.PC, ev.MemAddr, ev.StoreVal, g.MemAddr, g.StoreVal)
			}
		}
		if ev.Target != g.NextPC {
			t.Fatalf("commit %d pc=%#x %v: next=%#x golden=%#x",
				ev.Index, ev.PC, ev.Inst, ev.Target, g.NextPC)
		}
	}
	return golden
}

func TestLockstepAllBenchmarks(t *testing.T) {
	// The pipeline's committed instruction stream must be architecturally
	// identical to the ISA simulator on every benchmark: same PCs, same
	// results, same stores, no exceptions. This is the foundation the
	// fault-injection methodology stands on.
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			prog := workload.MustGenerate(bench, workload.Config{Seed: 42, Scale: 0.25})
			m, err := prog.NewMemory()
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(DefaultConfig(), m, prog.Entry)
			if err != nil {
				t.Fatal(err)
			}
			lockstep(t, p, prog)
			retired := p.RunRetired(30_000, 400_000)
			if t.Failed() {
				return
			}
			if p.Status() != StatusRunning {
				kind, pc, addr := p.Exception()
				t.Fatalf("pipeline stopped: %v (exc=%v pc=%#x addr=%#x)",
					p.Status(), kind, pc, addr)
			}
			if retired < 30_000 {
				t.Fatalf("retired only %d instructions", retired)
			}
		})
	}
}

func TestPipelineIPCReasonable(t *testing.T) {
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	p.RunRetired(50_000, 500_000)
	ipc := p.Stats().IPC()
	if ipc < 0.3 || ipc > 6 {
		t.Errorf("IPC = %.2f, outside plausible [0.3, 6]", ipc)
	}
	t.Logf("gzip IPC = %.2f", ipc)
}

func TestBranchPredictionAccuracy(t *testing.T) {
	// Section 3.2.2 relies on >95%-ish predictor accuracy on these
	// workloads. Measure the committed misprediction ratio.
	for _, bench := range []workload.Benchmark{workload.Gzip, workload.GCC} {
		p := newBenchPipeline(t, bench, DefaultConfig())
		p.RunRetired(60_000, 600_000)
		s := p.Stats()
		if s.CondBranches == 0 {
			t.Fatalf("%s: no conditional branches retired", bench)
		}
		// Conditional-branch accuracy is what the paper's >95% claim
		// covers; indirect jump-table dispatch (gcc/gap interpreters)
		// legitimately mispredicts more against a plain BTB.
		condRate := float64(s.CommittedCondMispredicts) / float64(s.CondBranches)
		t.Logf("%s: branches=%d cond=%d resolvedMisp=%d committedCondRate=%.3f hc=%d",
			bench, s.Branches, s.CondBranches, s.Mispredicts, condRate, s.HCMispredicts)
		if condRate > 0.12 {
			t.Errorf("%s: committed conditional misprediction rate %.3f too high", bench, condRate)
		}
	}
}

func TestHaltStopsPipeline(t *testing.T) {
	b := workload.NewBuilder("halt")
	b.LoadImm(1, 7)
	b.Emit(isa.Inst{Op: isa.OpHALT})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	p.RunCycles(1000)
	if p.Status() != StatusHalted {
		t.Fatalf("status = %v, want halted", p.Status())
	}
	if p.ArchReg(1) != 7 {
		t.Errorf("r1 = %d, want 7", p.ArchReg(1))
	}
}

func TestExceptionStopsPipeline(t *testing.T) {
	b := workload.NewBuilder("fault")
	b.LoadImm(1, 1<<40) // unmapped
	b.Load(isa.OpLDQ, 2, 0, 1)
	b.Emit(isa.Inst{Op: isa.OpHALT})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	p.RunCycles(1000)
	if p.Status() != StatusExcepted {
		t.Fatalf("status = %v, want excepted", p.Status())
	}
	kind, _, addr := p.Exception()
	if kind != arch.ExcAccessFault || addr != 1<<40 {
		t.Errorf("exception = %v addr=%#x", kind, addr)
	}
}

func TestWrongPathFaultIsSquashed(t *testing.T) {
	// A load behind a mispredicted branch may access unmapped memory; its
	// fault must vanish when the branch resolves. Program: r1=0; beq r1
	// skips over a wild load. A cold predictor may predict fall-through
	// into the wild load; either way the committed stream never faults.
	b := workload.NewBuilder("wrongpath")
	b.LoadImm(1, 0)
	b.LoadImm(5, 1<<40)
	b.Label("loop")
	b.Branch(isa.OpBEQ, 1, "skip") // always taken
	b.Load(isa.OpLDQ, 2, 0, 5)     // wild load on the not-taken path
	b.Label("skip")
	b.OpLit(isa.OpADDQ, 3, 1, 3)
	b.OpLit(isa.OpCMPLT, 3, 200, 4)
	b.Branch(isa.OpBNE, 4, "loop")
	b.Emit(isa.Inst{Op: isa.OpHALT})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	p.RunCycles(100_000)
	if p.Status() != StatusHalted {
		t.Fatalf("status = %v, want halted (wrong-path fault leaked?)", p.Status())
	}
	if p.ArchReg(3) != 200 {
		t.Errorf("r3 = %d, want 200", p.ArchReg(3))
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// A store immediately followed by a load of the same address must
	// forward in-flight.
	b := workload.NewBuilder("fwd")
	b.LoadImm(1, workload.DataBase)
	b.LoadImm(2, 0xABCD)
	b.Store(isa.OpSTQ, 2, 0, 1)
	b.Load(isa.OpLDQ, 3, 0, 1)
	b.OpLit(isa.OpADDQ, 3, 1, 4)
	b.Emit(isa.Inst{Op: isa.OpHALT})
	b.AllocData("d", make([]byte, 64), 0x3) // RW
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	p.RunCycles(1000)
	if p.Status() != StatusHalted {
		t.Fatalf("status = %v", p.Status())
	}
	if p.ArchReg(3) != 0xABCD || p.ArchReg(4) != 0xABCE {
		t.Errorf("r3=%#x r4=%#x", p.ArchReg(3), p.ArchReg(4))
	}
}

func TestDeterminism(t *testing.T) {
	a := newBenchPipeline(t, workload.Parser, DefaultConfig())
	b := newBenchPipeline(t, workload.Parser, DefaultConfig())
	for i := 0; i < 50; i++ {
		a.RunCycles(200)
		b.RunCycles(200)
		if a.State().Hash() != b.State().Hash() {
			t.Fatalf("state diverged at cycle %d", a.Cycles())
		}
	}
}

func TestCloneIndependenceAndEquality(t *testing.T) {
	p := newBenchPipeline(t, workload.Vortex, DefaultConfig())
	p.RunCycles(5000)
	c := p.Clone()
	if p.State().Hash() != c.State().Hash() {
		t.Fatal("clone hash differs immediately")
	}
	// Running both forward keeps them identical.
	for i := 0; i < 20; i++ {
		p.RunCycles(100)
		c.RunCycles(100)
		if p.State().Hash() != c.State().Hash() {
			t.Fatalf("clone diverged after %d cycles", (i+1)*100)
		}
	}
	// Mutating the clone must not touch the original.
	before := p.State().Hash()
	ref, _ := c.State().NthBit(12345)
	c.State().Flip(ref)
	if p.State().Hash() != before {
		t.Fatal("flipping clone state mutated original")
	}
}

func TestStateSpaceGeometry(t *testing.T) {
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	s := p.State()
	total := s.TotalBits(false)
	latches := s.TotalBits(true)
	if total < 20_000 || total > 80_000 {
		t.Errorf("total injectable bits = %d, expected tens of thousands (paper: ~46k)", total)
	}
	if latches == 0 || latches >= total {
		t.Errorf("latch bits = %d of %d", latches, total)
	}
	t.Logf("state space: %d bits total, %d latch bits, %d elements",
		total, latches, len(s.Elements()))

	// NthBit covers the full range and agrees with prefix sums.
	if _, ok := s.NthBit(total); ok {
		t.Error("NthBit(total) should be out of range")
	}
	ref, ok := s.NthBit(0)
	if !ok || ref.Elem != 0 || ref.Bit != 0 {
		t.Errorf("NthBit(0) = %+v", ref)
	}
	ref, ok = s.NthBit(total - 1)
	if !ok || ref.Elem != len(s.Elements())-1 {
		t.Errorf("NthBit(last) = %+v want last element", ref)
	}
}

func TestStateFlipChangesHashAndIsReversible(t *testing.T) {
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	p.RunCycles(2000)
	s := p.State()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		n := uint64(rng.Int63n(int64(s.TotalBits(false))))
		ref, ok := s.NthBit(n)
		if !ok {
			t.Fatalf("NthBit(%d) failed", n)
		}
		before := s.Hash()
		was := s.Peek(ref)
		s.Flip(ref)
		if s.Peek(ref) == was {
			t.Fatal("flip did not change the bit")
		}
		if s.Hash() == before {
			t.Fatalf("hash unchanged after flipping %s bit %d",
				s.Elements()[ref.Elem].Name, ref.Bit)
		}
		s.Flip(ref)
		if s.Hash() != before {
			t.Fatal("double flip did not restore the hash")
		}
	}
}

func TestRandomFlipsNeverPanic(t *testing.T) {
	// The cardinal robustness property: ANY single bit flip anywhere in
	// the state space, at any point in execution, must leave the
	// simulator panic-free (the machine may misbehave arbitrarily — that
	// is the point — but must keep simulating).
	rng := rand.New(rand.NewSource(7))
	base := newBenchPipeline(t, workload.MCF, DefaultConfig())
	base.RunCycles(3000)
	for trial := 0; trial < 60; trial++ {
		p := base.Clone()
		p.RunCycles(uint64(rng.Intn(500)))
		if p.Status() != StatusRunning {
			t.Fatalf("golden clone stopped: %v", p.Status())
		}
		n := uint64(rng.Int63n(int64(p.State().TotalBits(false))))
		ref, _ := p.State().NthBit(n)
		p.State().Flip(ref)
		p.RunCycles(2000) // any status is acceptable; no panics allowed
	}
}

func TestLatchOnlySampling(t *testing.T) {
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	s := p.State()
	// Walk all elements: NthBit over the latch-only prefix... latches and
	// SRAMs interleave, so instead verify classification coverage.
	var latchBits, sramBits uint64
	for _, e := range s.Elements() {
		switch e.Kind {
		case KindLatch:
			latchBits += uint64(e.Bits)
		case KindSRAM:
			sramBits += uint64(e.Bits)
		default:
			t.Fatalf("element %s has no kind", e.Name)
		}
	}
	if latchBits != s.TotalBits(true) {
		t.Errorf("latch bit accounting: %d vs %d", latchBits, s.TotalBits(true))
	}
	if sramBits == 0 {
		t.Error("no SRAM bits registered")
	}
}

func TestResetRestoresArchState(t *testing.T) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 42, Scale: 0.25})
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	p.RunRetired(5000, 100_000)
	regs := p.ArchRegs()
	pc := p.CommitPC()
	retired := p.Retired()

	// Run further, then roll back.
	p.RunRetired(3000, 100_000)
	p.Reset(regs, pc)
	if p.Status() != StatusRunning {
		t.Fatalf("status after reset = %v", p.Status())
	}
	got := p.ArchRegs()
	if got != regs {
		t.Fatal("architectural registers not restored")
	}
	if p.CommitPC() != pc {
		t.Fatalf("commit pc = %#x want %#x", p.CommitPC(), pc)
	}
	// The machine must be able to continue executing after reset.
	p.RunRetired(1000, 50_000)
	if p.Retired() == retired {
		t.Fatal("pipeline did not make progress after reset")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.WatchdogCycles = 0
	if _, err := New(bad, nil, 0); err == nil {
		t.Error("zero watchdog accepted")
	}
	bad = DefaultConfig()
	bad.Confidence = ConfidenceKind(99)
	if _, err := New(bad, nil, 0); err == nil {
		t.Error("bad confidence kind accepted")
	}
	bad = DefaultConfig()
	bad.ALULatency = 0
	if _, err := New(bad, nil, 0); err == nil {
		t.Error("zero ALU latency accepted")
	}
	bad = DefaultConfig()
	bad.PredictorBits = 0
	if _, err := New(bad, nil, 0); err == nil {
		t.Error("zero predictor bits accepted")
	}
}

func TestStatusStrings(t *testing.T) {
	for _, s := range []Status{StatusRunning, StatusHalted, StatusExcepted, StatusDeadlocked, Status(0)} {
		if s.String() == "" {
			t.Errorf("empty string for status %d", s)
		}
	}
}

func TestCtlPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []isa.Op{isa.OpADDQ, isa.OpLDQ, isa.OpSTL, isa.OpBEQ, isa.OpBR,
		isa.OpJSR, isa.OpRET, isa.OpCMOVEQ, isa.OpSLL, isa.OpMULQV, isa.OpLDA}
	for i := 0; i < 5000; i++ {
		inst := isa.Inst{
			Op:   ops[rng.Intn(len(ops))],
			Ra:   isa.Reg(rng.Intn(32)),
			Rb:   isa.Reg(rng.Intn(32)),
			Rc:   isa.Reg(rng.Intn(32)),
			Disp: int32(rng.Intn(1<<21)) - 1<<20,
		}
		if rng.Intn(2) == 0 {
			inst.UseLit = true
			inst.Lit = uint8(rng.Uint32())
		}
		got := unpackCtl(packCtl(inst))
		if got != inst {
			t.Fatalf("ctl round trip: %+v -> %+v", inst, got)
		}
	}
	// Corrupted opcodes decode to OpInvalid rather than panicking.
	if unpackCtl(63).Op != isa.OpInvalid {
		t.Error("undefined opcode should unpack to OpInvalid")
	}
	if !ctlIsFetchFault(packFetchFault()) {
		t.Error("fetch-fault marker lost")
	}
}
