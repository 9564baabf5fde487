package workload

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
)

func TestBuilderBranchResolution(t *testing.T) {
	b := NewBuilder("t")
	b.LoadImm(1, 3)
	b.Label("loop")
	b.OpLit(isa.OpSUBQ, 1, 1, 1)
	b.Branch(isa.OpBGT, 1, "loop")
	b.Emit(isa.Inst{Op: isa.OpHALT})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	s := arch.New(m, p.Entry)
	if _, last, err := s.Run(100); err != nil || !last.Halted {
		t.Fatalf("loop program did not halt cleanly: %v %+v", err, last)
	}
	if s.Reg(1) != 0 {
		t.Errorf("r1 = %d, want 0", s.Reg(1))
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Branch(isa.OpBR, isa.RegZero, "nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected undefined-label error")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Label("x")
	b.Label("x")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

func TestBuilderDataFixupOutsideSegment(t *testing.T) {
	b := NewBuilder("t")
	addr := b.AllocData("seg", make([]byte, 8), mem.PermRW)
	b.Label("l")
	b.Nop()
	b.PatchCodeAddr(addr, 4, "l") // 4+8 > 8
	if _, err := b.Build(); err == nil {
		t.Fatal("expected out-of-segment fixup error")
	}
}

func TestBuilderPatchUnknownSegment(t *testing.T) {
	b := NewBuilder("t")
	b.PatchCodeAddr(0xDEAD, 0, "l")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected unknown-segment error")
	}
}

func TestLoadImmValues(t *testing.T) {
	values := []uint64{0, 1, 255, 256, 0x1234, 0xDEADBEEF, 0x7FFF0000,
		0x0000_1000_0000, ^uint64(0), 0x8000_0000_0000_0000}
	for _, v := range values {
		b := NewBuilder("t")
		b.LoadImm(5, v)
		b.Emit(isa.Inst{Op: isa.OpHALT})
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.NewMemory()
		if err != nil {
			t.Fatal(err)
		}
		s := arch.New(m, p.Entry)
		if _, last, err := s.Run(100); err != nil || !last.Halted {
			t.Fatalf("LoadImm(%#x) program failed: %v", v, err)
		}
		if got := s.Reg(5); got != v {
			t.Errorf("LoadImm(%#x) produced %#x", v, got)
		}
	}
}

func TestGenerateAllBenchmarksRunClean(t *testing.T) {
	// Every benchmark must run a long window with no exceptions and no
	// halt: symptom-free golden execution is the baseline every
	// fault-injection campaign compares against.
	for _, bench := range Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			p, err := Generate(bench, Config{Seed: 42, Scale: 0.25})
			if err != nil {
				t.Fatal(err)
			}
			m, err := p.NewMemory()
			if err != nil {
				t.Fatal(err)
			}
			s := arch.New(m, p.Entry)
			n, last, err := s.Run(200_000)
			if err != nil {
				t.Fatal(err)
			}
			if last.Exception != arch.ExcNone {
				t.Fatalf("golden run raised %v at pc=%#x after %d insts",
					last.Exception, last.PC, n)
			}
			if s.Halted {
				t.Fatal("program halted; must loop forever")
			}
			if n != 200_000 {
				t.Fatalf("ran only %d instructions", n)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(MCF, Config{Seed: 7, Scale: 0.25})
	b := MustGenerate(MCF, Config{Seed: 7, Scale: 0.25})
	if len(a.Code) != len(b.Code) {
		t.Fatal("code sizes differ")
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("code differs at %d", i)
		}
	}
	if len(a.Segments) != len(b.Segments) {
		t.Fatal("segment counts differ")
	}
	for i := range a.Segments {
		as, bs := a.Segments[i], b.Segments[i]
		if as.Base != bs.Base || len(as.Data) != len(bs.Data) {
			t.Fatalf("segment %d geometry differs", i)
		}
		for j := range as.Data {
			if as.Data[j] != bs.Data[j] {
				t.Fatalf("segment %d data differs at %d", i, j)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(GCC, Config{Seed: 1, Scale: 0.25})
	b := MustGenerate(GCC, Config{Seed: 2, Scale: 0.25})
	same := len(a.Segments) == len(b.Segments)
	if same {
		diff := false
		for i := range a.Segments {
			for j := range a.Segments[i].Data {
				if j < len(b.Segments[i].Data) && a.Segments[i].Data[j] != b.Segments[i].Data[j] {
					diff = true
					break
				}
			}
		}
		if !diff {
			t.Error("different seeds produced identical data")
		}
	}
}

func TestGenerateUnknownBenchmark(t *testing.T) {
	if _, err := Generate(Benchmark("quake"), Config{}); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestProgramStateEvolves(t *testing.T) {
	// The iteration counter and kernel state slots must change over time,
	// proving the program makes real progress rather than spinning.
	p := MustGenerate(Gzip, Config{Seed: 3, Scale: 0.25})
	m, err := p.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	s := arch.New(m, p.Entry)
	if _, _, err := s.Run(50_000); err != nil {
		t.Fatal(err)
	}
	iters, err := m.ReadQ(p.Segments[0].Base + slotState)
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Error("iteration counter never stored")
	}
}

func TestInstructionMix(t *testing.T) {
	// Sanity-check the dynamic instruction mix is SPECint-like: a
	// substantial branch fraction and load fraction, some stores. These
	// statistics are what the paper's coverage results ride on.
	for _, bench := range Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			p := MustGenerate(bench, Config{Seed: 11, Scale: 0.25})
			m, err := p.NewMemory()
			if err != nil {
				t.Fatal(err)
			}
			s := arch.New(m, p.Entry)
			var branches, loads, stores, total int
			for total = 0; total < 100_000; total++ {
				ev := s.Step()
				if ev.Exception != arch.ExcNone {
					t.Fatalf("exception %v at %#x", ev.Exception, ev.PC)
				}
				switch {
				case ev.IsBranch:
					branches++
				case ev.IsLoad:
					loads++
				case ev.IsStore:
					stores++
				}
			}
			bf := float64(branches) / float64(total)
			lf := float64(loads) / float64(total)
			sf := float64(stores) / float64(total)
			if bf < 0.05 || bf > 0.35 {
				t.Errorf("branch fraction %.3f outside [0.05, 0.35]", bf)
			}
			if lf < 0.08 || lf > 0.45 {
				t.Errorf("load fraction %.3f outside [0.08, 0.45]", lf)
			}
			if sf < 0.01 || sf > 0.30 {
				t.Errorf("store fraction %.3f outside [0.01, 0.30]", sf)
			}
		})
	}
}

func TestGenerateManySeedsRunClean(t *testing.T) {
	// Robustness across generation randomness: several seeds and scales
	// per benchmark must all produce symptom-free golden runs.
	for _, bench := range Benchmarks() {
		for _, seed := range []int64{1, 99, 2026} {
			p, err := Generate(bench, Config{Seed: seed, Scale: 0.25})
			if err != nil {
				t.Fatalf("%s seed %d: %v", bench, seed, err)
			}
			m, err := p.NewMemory()
			if err != nil {
				t.Fatal(err)
			}
			s := arch.New(m, p.Entry)
			n, last, err := s.Run(30_000)
			if err != nil || last.Exception != arch.ExcNone || n != 30_000 {
				t.Fatalf("%s seed %d: n=%d exc=%v err=%v", bench, seed, n, last.Exception, err)
			}
		}
	}
}

// TestCodePagesReadExecuteOnly pins the layout the VM campaign's golden log
// relies on: NewMemory maps every code page read+execute and never writable,
// and no data segment or stack page shares a page with code. Code can then
// never change under a running program, so a faulty run that reaches a
// golden PC executes the golden instruction there.
func TestCodePagesReadExecuteOnly(t *testing.T) {
	pages := func(base, length uint64) (uint64, uint64) {
		return base >> mem.PageBits, (base + length - 1) >> mem.PageBits
	}
	for _, bench := range Benchmarks() {
		for _, scale := range []float64{0.25, 1.0} {
			p, err := Generate(bench, Config{Seed: 42, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			m, err := p.NewMemory()
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := pages(p.CodeBase, uint64(len(p.Code))*isa.InstBytes)
			for vpn := lo; vpn <= hi; vpn++ {
				addr := vpn << mem.PageBits
				if !m.Mapped(addr, mem.PermRX) || m.Mapped(addr, mem.PermWrite) {
					t.Errorf("%s scale %g: code page %#x is not read+execute only", bench, scale, addr)
				}
			}
			others := map[string][2]uint64{"stack": {StackBase, StackSize}}
			for _, seg := range p.Segments {
				others["segment "+seg.Name] = [2]uint64{seg.Base, uint64(len(seg.Data))}
			}
			for name, r := range others {
				if first, last := pages(r[0], max(r[1], 1)); first <= hi && last >= lo {
					t.Errorf("%s scale %g: %s [%#x, +%d) shares a page with code", bench, scale, name, r[0], r[1])
				}
			}
		}
	}
}
