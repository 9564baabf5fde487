package inject

import (
	"testing"

	"repro/internal/workload"
)

// Small campaign configurations keep the test suite fast while still
// exercising the full machinery; the cmd tool runs paper-scale campaigns.

func smallVM(bench workload.Benchmark, low32 bool) VMConfig {
	return VMConfig{
		Bench: bench, Seed: 7, Scale: 0.5,
		Trials: 160, Points: 20, Window: 20_000, Spread: 40_000,
		Low32: low32,
	}
}

func smallUArch(bench workload.Benchmark) UArchConfig {
	return UArchConfig{
		Bench: bench, Seed: 7, Scale: 0.5,
		Points: 5, TrialsPerPoint: 30,
		WarmupCycles: 5_000, SpreadCycles: 10_000, WindowCycles: 5_000,
	}
}

func TestVMCampaignBasicShape(t *testing.T) {
	r, err := RunVM(smallVM(workload.MCF, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trials) != 160 {
		t.Fatalf("trials = %d", len(r.Trials))
	}
	masked := r.MaskedFraction()
	if masked < 0.30 || masked > 0.85 {
		t.Errorf("masked fraction %.2f outside plausible band (paper: ~0.59)", masked)
	}
	d := r.Distribution(100_000)
	if d["exception"] == 0 {
		t.Error("no exceptions observed; pointer corruption must fault")
	}
	// Coverage grows (weakly) with allowed latency.
	prev := 0.0
	for _, lat := range []uint64{25, 100, 1000, 10_000} {
		d := r.Distribution(lat)
		cov := d["exception"] + d["cfv"]
		if cov+1e-9 < prev {
			t.Errorf("exception+cfv coverage shrank at latency %d", lat)
		}
		prev = cov
	}
}

func TestVMCampaignDeterminism(t *testing.T) {
	a, err := RunVM(smallVM(workload.Gzip, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunVM(smallVM(workload.Gzip, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trials) != len(b.Trials) {
		t.Fatal("trial counts differ")
	}
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Fatalf("trial %d differs: %+v vs %+v", i, a.Trials[i], b.Trials[i])
		}
	}
}

func TestVMLow32ShiftsExceptions(t *testing.T) {
	// Section 3.1: restricting flips to the low 32 bits shrinks the
	// exception category (fewer wild pointers) in favour of cfv/mem-addr.
	full, err := RunVM(smallVM(workload.MCF, false))
	if err != nil {
		t.Fatal(err)
	}
	low, err := RunVM(smallVM(workload.MCF, true))
	if err != nil {
		t.Fatal(err)
	}
	fullExc := full.Distribution(100_000)["exception"]
	lowExc := low.Distribution(100_000)["exception"]
	t.Logf("exception fraction: 64-bit=%.3f low32=%.3f", fullExc, lowExc)
	if lowExc > fullExc+0.05 {
		t.Errorf("low-32 injection increased exceptions (%.3f vs %.3f)", lowExc, fullExc)
	}
}

func TestUArchCampaignBasicShape(t *testing.T) {
	r, err := RunUArch(smallUArch(workload.MCF))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trials) != 150 {
		t.Fatalf("trials = %d", len(r.Trials))
	}
	if r.TotalBits < 20_000 {
		t.Errorf("state space too small: %d bits", r.TotalBits)
	}
	raw := RawFailureRate(r.Trials)
	if raw > 0.35 {
		t.Errorf("raw failure rate %.2f implausibly high (paper: ~0.07)", raw)
	}
	d := r.Distribution(100, DetectorPerfect)
	if d["masked"] < 0.4 {
		t.Errorf("masked %.2f too low (paper: ~0.93 incl. other)", d["masked"])
	}
	// Coverage must not decrease with interval.
	prev := 1.0
	for _, iv := range []uint64{25, 100, 500, 2000} {
		fr := FailureRate(r.Trials, iv, DetectorPerfect)
		if fr > prev+1e-9 {
			t.Errorf("failure rate grew with interval at %d", iv)
		}
		prev = fr
	}
}

func TestUArchCampaignDeterminism(t *testing.T) {
	a, err := RunUArch(smallUArch(workload.Gzip))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunUArch(smallUArch(workload.Gzip))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trials) != len(b.Trials) {
		t.Fatal("trial counts differ")
	}
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Fatalf("trial %d differs:\n%+v\n%+v", i, a.Trials[i], b.Trials[i])
		}
	}
}

func TestUArchLatchOnlyTargeting(t *testing.T) {
	cfg := smallUArch(workload.Gzip)
	cfg.LatchesOnly = true
	r, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range r.Trials {
		if !tr.IsLatch {
			t.Fatalf("trial %d targeted SRAM element %s in latch-only mode", i, tr.Elem)
		}
	}
}

func TestUArchHardenedPipeline(t *testing.T) {
	plain, err := RunUArch(smallUArch(workload.Vortex))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallUArch(workload.Vortex)
	cfg.Hardened = true
	hard, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	protected := 0
	for _, tr := range hard.Trials {
		if tr.Protected {
			protected++
		}
	}
	if protected == 0 {
		t.Fatal("no trials landed in protected state")
	}
	if hard.HardenStats.OverheadBits == 0 {
		t.Error("hardened campaign reports zero overhead")
	}

	rawPlain := RawFailureRate(plain.Trials)
	rawHard := RawFailureRate(hard.Trials)
	t.Logf("raw failure: plain=%.3f hardened=%.3f (protected %d/%d trials)",
		rawPlain, rawHard, protected, len(hard.Trials))
	if rawHard > rawPlain+0.03 {
		t.Errorf("hardening increased the failure rate: %.3f vs %.3f", rawHard, rawPlain)
	}
}

func TestUArchDetectorOrdering(t *testing.T) {
	r, err := RunUArch(smallUArch(workload.MCF))
	if err != nil {
		t.Fatal(err)
	}
	const iv = 100
	frPerfect := FailureRate(r.Trials, iv, DetectorPerfect)
	frOracle := FailureRate(r.Trials, iv, DetectorOracleConfidence)
	frJRS := FailureRate(r.Trials, iv, DetectorJRS)
	frNone := FailureRate(r.Trials, iv, DetectorNone)
	t.Logf("uncovered failure rates: perfect=%.3f oracle=%.3f jrs=%.3f none=%.3f",
		frPerfect, frOracle, frJRS, frNone)
	// Stronger detectors leave (weakly) fewer uncovered failures.
	if frJRS > frNone+1e-9 {
		t.Error("JRS left more failures than no detector")
	}
	if frOracle > frJRS+1e-9 {
		t.Error("oracle confidence weaker than JRS")
	}
}

func TestVMUnknownBenchmark(t *testing.T) {
	if _, err := RunVM(VMConfig{Bench: "doom"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := RunUArch(UArchConfig{Bench: "doom"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
