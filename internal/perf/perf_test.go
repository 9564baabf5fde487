package perf

import (
	"math"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/restore"
	"repro/internal/workload"
)

func referenceInputs() Inputs {
	// Suite-typical values: CPI under 1, replay slightly cheaper, one
	// high-confidence mispredict per ~1000 instructions (the JRS
	// estimator is conservative but branch-heavy phases still fire).
	return Inputs{
		BaseCPI:      0.8,
		ReplayCPI:    0.7,
		SymptomRate:  1e-3,
		FlushPenalty: 20,
	}
}

func TestSpeedupShape(t *testing.T) {
	in := referenceInputs()
	intervals := []uint64{50, 100, 200, 500, 1000}

	prevImm := 1.0
	for _, iv := range intervals {
		s := Speedup(in, iv, restore.PolicyImmediate)
		if s <= 0 || s > 1 {
			t.Fatalf("speedup(%d) = %v out of range", iv, s)
		}
		if s > prevImm+1e-12 {
			t.Errorf("immediate speedup increased with interval at %d", iv)
		}
		prevImm = s
	}

	// Paper: ~6% hit at a 100-instruction interval; the model lands in
	// the same minor-loss regime (5-20% depending on the symptom rate).
	s100 := Speedup(in, 100, restore.PolicyImmediate)
	if s100 < 0.80 || s100 > 0.99 {
		t.Errorf("speedup at 100 = %.3f, want minor loss (0.80-0.99)", s100)
	}
}

func TestPolicyCrossover(t *testing.T) {
	// Paper: delayed slightly underperforms immediate at small intervals
	// and gains the advantage around 500.
	in := referenceInputs()
	small := Speedup(in, 50, restore.PolicyImmediate) - Speedup(in, 50, restore.PolicyDelayed)
	large := Speedup(in, 2000, restore.PolicyDelayed) - Speedup(in, 2000, restore.PolicyImmediate)
	if small < 0 {
		t.Errorf("delayed should underperform at small intervals (diff=%v)", small)
	}
	if large <= 0 {
		t.Errorf("delayed should win at large intervals (diff=%v)", large)
	}
	// A crossover interval exists (paper places it near 500).
	crossed := false
	for _, iv := range []uint64{100, 200, 500, 1000, 2000} {
		if Speedup(in, iv, restore.PolicyDelayed) > Speedup(in, iv, restore.PolicyImmediate) {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Error("no crossover interval found up to 2000")
	}
}

func TestOverheadLimits(t *testing.T) {
	in := referenceInputs()
	// Zero symptom rate: zero overhead, unit speedup.
	in0 := in
	in0.SymptomRate = 0
	for _, pol := range []restore.Policy{restore.PolicyImmediate, restore.PolicyDelayed} {
		if o := Overhead(in0, 100, pol); o != 0 {
			t.Errorf("overhead with no symptoms = %v", o)
		}
		if s := Speedup(in0, 100, pol); s != 1 {
			t.Errorf("speedup with no symptoms = %v", s)
		}
	}
	// Delayed overhead saturates: at most one rollback per interval.
	perInst := Overhead(in, 100000, restore.PolicyDelayed)
	bound := 2*in.ReplayCPI + in.FlushPenalty/100000 + 1e-9
	if perInst > bound {
		t.Errorf("delayed overhead %v exceeds saturation bound %v", perInst, bound)
	}
}

func TestSweepSeries(t *testing.T) {
	imm, del := Sweep(referenceInputs(), []uint64{50, 100, 200})
	if len(imm.X) != 3 || len(del.X) != 3 {
		t.Fatal("sweep lengths wrong")
	}
	if imm.Name != "imm" || del.Name != "delayed" {
		t.Error("series names wrong")
	}
}

func TestMeasureInputs(t *testing.T) {
	in, err := MeasureInputs(workload.GCC, workload.Config{Seed: 42}, 40_000, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gcc inputs: %+v", in)
	if in.BaseCPI < 0.2 || in.BaseCPI > 5 {
		t.Errorf("BaseCPI = %v implausible", in.BaseCPI)
	}
	if in.ReplayCPI > in.BaseCPI {
		t.Errorf("replay CPI %v exceeds base %v", in.ReplayCPI, in.BaseCPI)
	}
	if in.SymptomRate < 0 || in.SymptomRate > 0.05 {
		t.Errorf("symptom rate %v implausible", in.SymptomRate)
	}
	if in.FlushPenalty <= 0 {
		t.Error("flush penalty must be positive")
	}
}

func TestAverage(t *testing.T) {
	a := Inputs{BaseCPI: 1, ReplayCPI: 0.8, SymptomRate: 1e-3, FlushPenalty: 10}
	b := Inputs{BaseCPI: 3, ReplayCPI: 2.0, SymptomRate: 3e-3, FlushPenalty: 30}
	avg := Average([]Inputs{a, b})
	if avg.BaseCPI != 2 || avg.ReplayCPI != 1.4 || avg.FlushPenalty != 20 {
		t.Errorf("average = %+v", avg)
	}
	if math.Abs(avg.SymptomRate-2e-3) > 1e-12 {
		t.Errorf("avg symptom rate = %v", avg.SymptomRate)
	}
	if (Average(nil) != Inputs{}) {
		t.Error("empty average should be zero")
	}
}

func TestModelAgreesWithSimulation(t *testing.T) {
	// The analytic model and a direct simulation of the ReStore processor
	// must agree on the order of magnitude of the fault-free slowdown.
	if testing.Short() {
		t.Skip("simulation cross-check is slow")
	}
	const insts = 30_000
	pcfg := pipeline.DefaultConfig()
	in, err := MeasureInputs(workload.GCC, workload.Config{Seed: 42}, insts, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	model := Speedup(in, 100, restore.PolicyImmediate)

	measured, err := MeasureSlowdown(workload.GCC, workload.Config{Seed: 42}, insts, pcfg,
		restore.Config{Interval: 100, Policy: restore.PolicyImmediate})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("speedup at interval 100: model=%.3f simulated=%.3f", model, measured)
	if measured <= 0 || measured > 1.02 {
		t.Fatalf("simulated speedup %v out of range", measured)
	}
	if math.Abs(model-measured) > 0.15 {
		t.Errorf("model %.3f and simulation %.3f disagree badly", model, measured)
	}
}
