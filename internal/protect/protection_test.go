package protect

import "testing"

func TestNonePolicyProtectsNothing(t *testing.T) {
	s := testSpace(t)
	for _, p := range []*Policy{nil, {Name: "none"}} {
		for _, e := range s.Elements() {
			if got := p.ProtectionOf(e.Name); got != Unprotected {
				t.Fatalf("%s is %v under %+v", e.Name, got, p)
			}
		}
		st := Survey(s, p)
		if st.ECCBits != 0 || st.ParityBits != 0 || st.OverheadBits != 0 {
			t.Errorf("%+v has overhead: %+v", p, st)
		}
	}
}

// Campaigns ask LowHangingFruit of element names exactly as the state space
// registers them, so every name it lists must be registered, once: a stale
// or misspelled name would silently protect nothing, and a name listed
// twice carries a second domain no lookup ever reads.
func TestLowHangingFruitPlacement(t *testing.T) {
	s := testSpace(t)
	registered := make(map[string]bool)
	for _, e := range s.Elements() {
		registered[e.Name] = true
	}
	lhf := LowHangingFruit()
	listed := make(map[string]bool)
	for _, a := range lhf.Assign {
		if !registered[a.Elem] {
			t.Errorf("%s is not a registered element", a.Elem)
		}
		if listed[a.Elem] {
			t.Errorf("%s is listed twice", a.Elem)
		}
		listed[a.Elem] = true
	}
	for _, c := range []struct {
		elem string
		want Protection
	}{
		{"prf.val", ECC}, {"specRAT", ECC}, {"archRAT", ECC},
		{"rob.ctl", Parity}, {"fq.word", Parity},
		// Operational data in flight stays unprotected.
		{"stq.data", Unprotected}, {"exec.val", Unprotected}, {"rob.result", Unprotected},
		// Names match exactly: a prefix of prf.val and prf.ready covers neither.
		{"prf", Unprotected},
	} {
		if got := lhf.ProtectionOf(c.elem); got != c.want {
			t.Errorf("%s: %v, want %v", c.elem, got, c.want)
		}
	}
}

// An assignment covers every word registered under its name.
func TestSurveyCoversEveryWordOfAName(t *testing.T) {
	s := testSpace(t)
	var words, bits, width uint64
	for _, e := range s.Elements() {
		if e.Name == "prf.val" {
			words++
			bits += uint64(e.Bits)
			width = uint64(e.Bits)
		}
	}
	if words < 2 {
		t.Fatalf("prf.val registers %d words; the test needs several", words)
	}
	st := Survey(s, &Policy{Name: "x", Assign: []Assignment{{Elem: "prf.val", Prot: ECC}}})
	if st.ECCBits != bits || st.ParityBits != 0 || st.OverheadBits != words*SECDEDBits(width) {
		t.Errorf("survey %+v, want %d ECC bits over %d words of %d bits", st, bits, words, width)
	}
}

func TestSurveyCoverageAndOverhead(t *testing.T) {
	s := testSpace(t)
	st := Survey(s, LowHangingFruit())
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
