package protect

import (
	"strings"
	"testing"

	"repro/internal/pipeline"
)

func mustCompile(t *testing.T, s *pipeline.StateSpace, p *Policy) *Map {
	t.Helper()
	m, err := p.Compile(s)
	if err != nil {
		t.Fatalf("Compile(%s): %v", p.Fingerprint(), err)
	}
	return m
}

func TestNonePolicyProtectsNothing(t *testing.T) {
	s := testSpace(t)
	for _, p := range []*Policy{nil, None()} {
		m := mustCompile(t, s, p)
		for i := range s.Elements() {
			if m.Protection(i) != Unprotected {
				t.Fatalf("element %d protected under %s", i, p.Fingerprint())
			}
		}
		st := Survey(s, m)
		if st.ECCBits != 0 || st.ParityBits != 0 || st.OverheadBits != 0 {
			t.Errorf("%s has overhead: %+v", p.Fingerprint(), st)
		}
	}
}

func TestLowHangingFruitPlacement(t *testing.T) {
	s := testSpace(t)
	m := mustCompile(t, s, LowHangingFruit())
	elems := s.Elements()
	sawECC, sawParity, sawBare := false, false, false
	for i := range elems {
		switch elems[i].Name {
		case "prf.val", "specRAT", "archRAT":
			if m.Protection(i) != ECC {
				t.Fatalf("%s not ECC", elems[i].Name)
			}
			sawECC = true
		case "rob.ctl", "fq.word":
			if m.Protection(i) != Parity {
				t.Fatalf("%s not parity", elems[i].Name)
			}
			sawParity = true
		case "stq.data", "exec.val", "rob.result":
			if m.Protection(i) != Unprotected {
				t.Fatalf("%s should be unprotected (operational data in flight)", elems[i].Name)
			}
			sawBare = true
		}
	}
	if !sawECC || !sawParity || !sawBare {
		t.Fatalf("classification did not see all domains: ecc=%v parity=%v bare=%v",
			sawECC, sawParity, sawBare)
	}
}

// TestExactMatchingRejectsUnresolvedNames is the regression test for the
// prefix-matching bug: a policy naming a renamed (or misspelled) element
// must fail loudly, never silently protect nothing. A prefix matcher would
// have accepted "prf" below as a prefix of prf.val.
func TestExactMatchingRejectsUnresolvedNames(t *testing.T) {
	s := testSpace(t)
	for _, name := range []string{
		"prf",          // bare prefix of prf.val / prf.ready
		"rob.ctrl",     // renamed: registered name is rob.ctl
		"fq.word.high", // over-qualified
		"no.such.elem",
	} {
		p := &Policy{Name: "x", Assign: []Assignment{{Elem: "fq.word", Prot: Parity}, {Elem: name, Prot: Parity}}}
		_, err := p.Compile(s)
		if err == nil {
			t.Fatalf("policy with unresolved name %q compiled silently", name)
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error for %q does not name the offender: %v", name, err)
		}
	}
	// Several unresolved names are all reported, sorted.
	p := &Policy{Name: "x", Assign: []Assignment{{Elem: "zzz.b", Prot: ECC}, {Elem: "aaa.a", Prot: Parity}}}
	_, err := p.Compile(s)
	if err == nil {
		t.Fatal("two unresolved names compiled silently")
	}
	if !strings.Contains(err.Error(), "aaa.a, zzz.b") {
		t.Errorf("unresolved names not sorted in error: %v", err)
	}
}

// A policy naming an element twice would read one way through ProtectionOf
// (the first entry) and another through a compiled map, so Compile refuses
// it, naming the element, whether or not the two domains agree.
func TestCompileRejectsDuplicateElement(t *testing.T) {
	s := testSpace(t)
	for _, second := range []Protection{Unprotected, Parity} {
		p := &Policy{Name: "twice", Assign: []Assignment{
			{Elem: "fetchPC", Prot: Parity},
			{Elem: "prf.val", Prot: Parity},
			{Elem: "prf.val", Prot: second},
		}}
		_, err := p.Compile(s)
		if err == nil {
			t.Fatalf("policy naming prf.val twice (parity, %v) compiled", second)
		}
		if !strings.Contains(err.Error(), "twice") || !strings.Contains(err.Error(), "prf.val") {
			t.Errorf("error %q names neither the policy nor the element", err)
		}
		if strings.Contains(err.Error(), "fetchPC") {
			t.Errorf("error %q names an element listed once", err)
		}
	}
}

func TestCompileCoversEveryWordOfAName(t *testing.T) {
	s := testSpace(t)
	m := mustCompile(t, s, &Policy{Name: "x", Assign: []Assignment{{Elem: "prf.val", Prot: ECC}}})
	words := 0
	for i, e := range s.Elements() {
		want := Unprotected
		if e.Name == "prf.val" {
			want = ECC
			words++
		}
		if m.Protection(i) != want {
			t.Fatalf("element %d (%s): protection %v, want %v", i, e.Name, m.Protection(i), want)
		}
	}
	if words < 2 {
		t.Fatalf("prf.val registers %d words; the test needs several", words)
	}
}

func TestSurveyCoverageAndOverhead(t *testing.T) {
	s := testSpace(t)
	st, err := LowHangingFruit().Survey(s)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalBits != s.TotalBits(false) {
		t.Errorf("total bits %d vs %d", st.TotalBits, s.TotalBits(false))
	}
	cov := st.CoveredFraction()
	if cov < 0.30 || cov > 0.85 {
		t.Errorf("coverage %.2f outside plausible range", cov)
	}
	// The paper quotes ~7% additional state for this placement.
	oh := st.OverheadFraction()
	if oh < 0.02 || oh > 0.15 {
		t.Errorf("overhead %.3f not in the paper's ballpark (~0.07)", oh)
	}
	t.Logf("coverage=%.1f%% overhead=%.1f%% (ecc=%d parity=%d of %d bits)",
		100*cov, 100*oh, st.ECCBits, st.ParityBits, st.TotalBits)
}

func TestProtectionBounds(t *testing.T) {
	m := mustCompile(t, testSpace(t), LowHangingFruit())
	if m.Protection(-1) != Unprotected || m.Protection(1<<30) != Unprotected {
		t.Error("out-of-range indices must be unprotected")
	}
}

func TestProtectionStrings(t *testing.T) {
	want := map[Protection]string{Unprotected: "unprotected", Parity: "parity", ECC: "ecc"}
	for p, name := range want {
		if got := p.String(); got != name {
			t.Errorf("Protection(%d).String() = %q, want %q", uint8(p), got, name)
		}
	}
	if got := Protection(7).String(); got != "Protection(7)" {
		t.Errorf("unknown domain names itself %q", got)
	}
}

func TestSECDEDWidths(t *testing.T) {
	tests := []struct {
		data uint64
		want uint64
	}{
		{8, 5}, {16, 6}, {32, 7}, {64, 8}, {7, 5},
	}
	for _, tt := range tests {
		if got := SECDEDBits(tt.data); got != tt.want {
			t.Errorf("SECDEDBits(%d) = %d, want %d", tt.data, got, tt.want)
		}
	}
}

func TestProtectionCost(t *testing.T) {
	if got := ProtectionCost(Parity, 64); got != 1 {
		t.Errorf("parity cost %d, want 1", got)
	}
	if got := ProtectionCost(ECC, 64); got != 8 {
		t.Errorf("ecc cost %d, want 8", got)
	}
	if got := ProtectionCost(Unprotected, 64); got != 0 {
		t.Errorf("unprotected cost %d, want 0", got)
	}
}
