package restore

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func newProcessor(t *testing.T, bench workload.Benchmark, cfg Config) (*Processor, *workload.Program) {
	t.Helper()
	prog := workload.MustGenerate(bench, workload.Config{Seed: 42, Scale: 0.25})
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	return New(pipe, cfg), prog
}

// goldenRegs runs the architectural simulator for n instructions and
// returns its register state.
func goldenRegs(t *testing.T, prog *workload.Program, n uint64) ([32]uint64, uint64) {
	t.Helper()
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	g := arch.New(m, prog.Entry)
	if _, last, err := g.Run(n); err != nil || last.Exception != arch.ExcNone {
		t.Fatalf("golden run failed: %v %v", err, last.Exception)
	}
	return g.Regs, g.PC
}

func TestFaultFreeRunMatchesGolden(t *testing.T) {
	proc, prog := newProcessor(t, workload.Gzip, Config{Interval: 100})
	rep, err := proc.Run(20_000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retired < 20_000 {
		t.Fatalf("retired %d", rep.Retired)
	}
	if rep.ExceptionSymptoms != 0 || rep.DeadlockSymptoms != 0 {
		t.Errorf("fault-free run raised symptoms: %+v", rep)
	}
	if rep.Checkpoints < rep.Retired/100 {
		t.Errorf("too few checkpoints: %d for %d insts", rep.Checkpoints, rep.Retired)
	}

	want, _ := goldenRegs(t, prog, rep.Retired)
	got := proc.Pipeline().ArchRegs()
	if got != want {
		t.Error("architectural state diverged from golden on a fault-free run")
	}
}

// pointerLoop builds a program in which r10 permanently holds a live,
// never-renamed pointer that is dereferenced every iteration: corrupting it
// is guaranteed to surface as a memory access fault within a few dozen
// instructions — a deterministic miniature of the paper's dominant
// error-to-exception propagation path.
func pointerLoop(t *testing.T) *workload.Program {
	t.Helper()
	b := workload.NewBuilder("ptrloop")
	b.AllocData("data", make([]byte, 4096), 0x3) // RW at DataBase
	b.LoadImm(isa.Reg(10), workload.DataBase)
	b.Label("loop")
	b.Load(isa.OpLDQ, 2, 0, 10) // dereference the long-lived pointer
	b.Op(isa.OpADDQ, 3, 2, 3)
	b.OpLit(isa.OpADDQ, 4, 1, 4)
	b.Store(isa.OpSTQ, 3, 8, 10)
	b.OpLit(isa.OpXOR, 4, 0x1F, 5)
	b.OpLit(isa.OpSLL, 5, 2, 6)
	b.Op(isa.OpADDQ, 6, 5, 7)
	b.Branch(isa.OpBR, isa.RegZero, "loop")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func newPointerLoopProcessor(t *testing.T, cfg Config) (*Processor, *workload.Program) {
	t.Helper()
	prog := pointerLoop(t)
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	return New(pipe, cfg), prog
}

func TestExceptionSymptomRecovery(t *testing.T) {
	// Corrupt a live pointer (high bit: lands in unmapped space). The
	// next dereference raises an access fault; ReStore must roll back to
	// a pre-corruption checkpoint, replay, and converge with the golden
	// run as if nothing happened.
	proc, prog := newPointerLoopProcessor(t, Config{Interval: 100})
	if _, err := proc.Run(5_000, 500_000); err != nil {
		t.Fatal(err)
	}

	// Flip a high bit of the pointer so it lands in unmapped space.
	proc.Pipeline().CorruptArchReg(isa.Reg(10), 45)

	rep, err := proc.Run(20_000, 2_000_000)
	if err != nil {
		t.Fatalf("run after corruption: %v (report %+v)", err, rep)
	}
	if rep.ExceptionSymptoms == 0 {
		t.Fatal("corruption produced no exception symptom")
	}
	if rep.Rollbacks == 0 {
		t.Fatal("no rollback performed")
	}
	if rep.VanishedSymptoms == 0 {
		t.Error("replay did not record the vanished exception")
	}
	if rep.GenuineExceptions != 0 {
		t.Error("recovered fault misclassified as genuine")
	}

	want, _ := goldenRegs(t, prog, rep.Retired)
	got := proc.Pipeline().ArchRegs()
	if got != want {
		t.Error("architectural state corrupt after recovery")
	}
}

func TestGenuineExceptionDetected(t *testing.T) {
	// A program whose main path truly faults: ReStore rolls back once,
	// replays, sees the exception recur at the same point, and reports it
	// as genuine.
	b := workload.NewBuilder("genuine")
	b.LoadImm(1, 10)
	b.Label("loop")
	b.OpLit(isa.OpSUBQ, 1, 1, 1)
	b.Branch(isa.OpBGT, 1, "loop")
	b.LoadImm(2, 1<<44)
	b.Load(isa.OpLDQ, 3, 0, 2) // wild load, architecturally reachable
	b.Emit(isa.Inst{Op: isa.OpHALT})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	proc := New(pipe, Config{Interval: 50})
	rep, err := proc.Run(10_000, 500_000)
	if !errors.Is(err, ErrGenuineException) {
		t.Fatalf("err = %v, want genuine exception (report %+v)", err, rep)
	}
	if rep.GenuineExceptions != 1 {
		t.Errorf("genuine exceptions = %d", rep.GenuineExceptions)
	}
	if rep.Rollbacks == 0 {
		t.Error("genuine exception must be confirmed by one rollback+replay")
	}
}

func TestHaltTerminatesRun(t *testing.T) {
	b := workload.NewBuilder("halts")
	b.LoadImm(1, 3)
	b.Label("loop")
	b.OpLit(isa.OpSUBQ, 1, 1, 1)
	b.Branch(isa.OpBGT, 1, "loop")
	b.Emit(isa.Inst{Op: isa.OpHALT})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	proc := New(pipe, Config{Interval: 100})
	rep, err := proc.Run(1_000_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retired >= 1_000_000 {
		t.Error("run did not stop at halt")
	}
}

func TestBranchSymptomFalsePositives(t *testing.T) {
	// With the Perfect confidence oracle, every misprediction is a
	// symptom; on a fault-free run every resulting rollback must be
	// classified a false positive, and execution must still make forward
	// progress with correct architectural state.
	pcfg := pipeline.DefaultConfig()
	pcfg.Confidence = pipeline.ConfidencePerfect
	prog := workload.MustGenerate(workload.GCC, workload.Config{Seed: 42, Scale: 0.25})
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(pcfg, m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	proc := New(pipe, Config{Interval: 100})
	rep, err := proc.Run(15_000, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BranchSymptoms == 0 {
		t.Fatal("oracle confidence produced no branch symptoms")
	}
	if rep.Rollbacks == 0 {
		t.Fatal("no rollbacks")
	}
	if rep.FalsePositives == 0 {
		t.Error("fault-free rollbacks not classified as false positives")
	}
	if rep.DetectedErrors != 0 {
		t.Errorf("spurious detected errors: %d", rep.DetectedErrors)
	}
	want, _ := goldenRegs(t, prog, rep.Retired)
	if proc.Pipeline().ArchRegs() != want {
		t.Error("architectural state diverged under rollback pressure")
	}
}

func TestDelayedPolicyCoalescesRollbacks(t *testing.T) {
	run := func(policy Policy) Report {
		pcfg := pipeline.DefaultConfig()
		pcfg.Confidence = pipeline.ConfidencePerfect
		prog := workload.MustGenerate(workload.GCC, workload.Config{Seed: 42, Scale: 0.25})
		m, err := prog.NewMemory()
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := pipeline.New(pcfg, m, prog.Entry)
		if err != nil {
			t.Fatal(err)
		}
		proc := New(pipe, Config{Interval: 200, Policy: policy})
		rep, err := proc.Run(10_000, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	imm := run(PolicyImmediate)
	del := run(PolicyDelayed)
	if imm.Rollbacks == 0 || del.Rollbacks == 0 {
		t.Fatalf("rollbacks: imm=%d del=%d", imm.Rollbacks, del.Rollbacks)
	}
	if del.Rollbacks > imm.Rollbacks {
		t.Errorf("delayed policy produced MORE rollbacks (%d) than immediate (%d)",
			del.Rollbacks, imm.Rollbacks)
	}
}

func TestDynamicTuningMutesSymptoms(t *testing.T) {
	pcfg := pipeline.DefaultConfig()
	pcfg.Confidence = pipeline.ConfidencePerfect // symptom storm
	prog := workload.MustGenerate(workload.GCC, workload.Config{Seed: 42, Scale: 0.25})
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(pcfg, m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	proc := New(pipe, Config{
		Interval:     100,
		TuneWindow:   2000,
		TuneLimit:    3,
		TuneCooldown: 2000,
	})
	rep, err := proc.Run(15_000, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MutedSymptoms == 0 {
		t.Errorf("tuning never muted a symptom under a symptom storm: %+v", rep)
	}

	// The same run without tuning must see more rollbacks.
	m2, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	pipe2, err := pipeline.New(pcfg, m2, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	proc2 := New(pipe2, Config{Interval: 100})
	rep2, err := proc2.Run(15_000, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Rollbacks <= rep.Rollbacks {
		t.Errorf("tuning did not reduce rollbacks: with=%d without=%d",
			rep.Rollbacks, rep2.Rollbacks)
	}
}

func TestDeadlockSymptomRecovery(t *testing.T) {
	// Corrupt the ROB occupancy count: the machine believes it is full,
	// rename stalls, commit runs dry against ghost entries, and the
	// watchdog declares deadlock. ReStore must roll back and continue.
	proc, prog := newProcessor(t, workload.Gzip, Config{Interval: 100})
	if _, err := proc.Run(3_000, 500_000); err != nil {
		t.Fatal(err)
	}
	s := proc.Pipeline().State()
	found := false
	for i, e := range s.Elements() {
		if e.Name == "rob.count" {
			s.Flip(pipeline.BitRef{Elem: i, Bit: 6})
			found = true
			break
		}
	}
	if !found {
		t.Fatal("rob.count element not registered")
	}
	rep, err := proc.Run(10_000, 2_000_000)
	if err != nil {
		t.Fatalf("deadlock not recovered: %v", err)
	}
	if rep.DeadlockSymptoms == 0 {
		t.Error("no deadlock symptom recorded")
	}
	want, _ := goldenRegs(t, prog, rep.Retired)
	if proc.Pipeline().ArchRegs() != want {
		t.Error("architectural state corrupt after deadlock recovery")
	}
}

func TestCycleBudget(t *testing.T) {
	proc, _ := newProcessor(t, workload.Gzip, Config{Interval: 100})
	_, err := proc.Run(1_000_000_000, 1000)
	if !errors.Is(err, ErrCycleBudget) {
		t.Errorf("err = %v, want cycle budget", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.applyDefaults()
	if c.Interval != 100 || c.Checkpoints != 2 || c.Policy != PolicyImmediate || c.EventLogSize != 8192 {
		t.Errorf("defaults: %+v", c)
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog(4)
	if l.Len() != 4 {
		t.Errorf("len = %d", l.Len())
	}
	rec := BranchRecord{Index: 10, PC: 0x100, Taken: true, Target: 0x200}
	l.Append(rec)
	got, ok := l.Lookup(10)
	if !ok || !got.Equal(rec) {
		t.Errorf("lookup = %+v, %v", got, ok)
	}
	if _, ok := l.Lookup(14); ok {
		t.Error("aliased slot returned stale record")
	}
	taken, target, ok := l.Outcome(10)
	if !ok || !taken || target != 0x200 {
		t.Errorf("outcome = %v %#x %v", taken, target, ok)
	}
	if _, _, ok := l.Outcome(99); ok {
		t.Error("outcome for unknown index")
	}
	// Overwrite on wraparound.
	l.Append(BranchRecord{Index: 14, PC: 0x300})
	if _, ok := l.Lookup(10); ok {
		t.Error("overwritten record still visible")
	}
	// Degenerate size.
	l2 := NewEventLog(0)
	if l2.Len() != 1 {
		t.Errorf("clamped len = %d", l2.Len())
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero-is-defaulted", Config{}, true},
		{"explicit", Config{Interval: 100, Checkpoints: 2, EventLogSize: 64, Policy: PolicyDelayed}, true},
		{"negative-checkpoints", Config{Checkpoints: -1}, false},
		{"negative-eventlog", Config{EventLogSize: -64}, false},
		{"unknown-policy", Config{Policy: Policy(77)}, false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	// Regression: a negative EventLogSize used to slip past the zero-only
	// defaulting and blow up later (modulo by a ring of negative size). It
	// must be rejected up front.
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 42, Scale: 0.25})
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted EventLogSize -1")
		}
	}()
	New(pipe, Config{EventLogSize: -1})
}

func TestEventLogSizeClamps(t *testing.T) {
	// Regression: size <= 0 used to divide by zero in the ring indexing.
	for _, size := range []int{0, -3} {
		if got := NewEventLog(size).Len(); got != 1 {
			t.Errorf("NewEventLog(%d).Len() = %d, want 1", size, got)
		}
		if got := NewLoadValueQueue(size).Len(); got != 1 {
			t.Errorf("NewLoadValueQueue(%d).Len() = %d, want 1", size, got)
		}
	}
	// The clamped ring must still be usable.
	l := NewEventLog(0)
	l.Append(BranchRecord{Index: 5, Taken: true})
	if _, ok := l.Lookup(5); !ok {
		t.Error("clamped event log lost its record")
	}
	q := NewLoadValueQueue(-1)
	q.Append(LoadRecord{Index: 9, Value: 3})
	if rec, ok := q.Lookup(9); !ok || rec.Value != 3 {
		t.Error("clamped load value queue lost its record")
	}
}
