package inject

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestBurstFaultsRaiseFailureRate(t *testing.T) {
	run := func(burst int) float64 {
		cfg := smallUArch(workload.Gzip)
		cfg.TrialsPerPoint = 60
		cfg.BurstBits = burst
		r, err := RunUArch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return RawFailureRate(r.Trials)
	}
	single := run(1)
	quad := run(4)
	t.Logf("failure rate: 1-bit=%.3f 4-bit burst=%.3f", single, quad)
	// Wider strikes can only corrupt more state; with matched sampling
	// the burst rate must not be materially lower.
	if quad < single-0.02 {
		t.Errorf("4-bit burst failure rate %.3f below single-bit %.3f", quad, single)
	}
}

func TestBurstClipsAtElementEdge(t *testing.T) {
	// A large burst must not panic or flip beyond element boundaries;
	// determinism across runs guards against hidden out-of-range writes.
	cfg := smallUArch(workload.Gzip)
	cfg.Points = 3
	cfg.TrialsPerPoint = 20
	cfg.BurstBits = 64
	a, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Fatalf("burst campaign not deterministic at trial %d", i)
		}
	}
}

// A negative count is an error, not a campaign: a negative BurstBits used to
// flip no bit, so every trial read masked or, where the golden log resolved
// it, stuck; a negative Points or TrialsPerPoint panicked sizing the plan.
func TestUArchRejectsNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*UArchConfig)
	}{
		{"Points", func(c *UArchConfig) { c.Points = -1 }},
		{"TrialsPerPoint", func(c *UArchConfig) { c.TrialsPerPoint = -1 }},
		{"BurstBits", func(c *UArchConfig) { c.BurstBits = -1 }},
	} {
		cfg := smallUArch(workload.Gzip)
		tc.set(&cfg)
		if _, err := RunUArch(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("negative %s: err = %v, want an error naming it", tc.field, err)
		}
	}
}
