package protect

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/staticvuln"
	"repro/internal/workload"
)

func testSpace(t *testing.T) *pipeline.StateSpace {
	t.Helper()
	prog := workload.MustGenerate("gzip", workload.Config{Seed: 3, Scale: 0.1})
	mem, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), mem, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	return p.State()
}

// syntheticReport has enough ACE mass for a nonzero potency.
func syntheticReport() *staticvuln.Report {
	return &staticvuln.Report{
		Program: "synthetic",
		Insts: []staticvuln.InstReport{
			{HasDest: true, Dest: 5, Weight: 10, Exception: 0xFF, Latency: 4},
			{HasDest: true, Dest: 6, Weight: 10, CFV: 0xFF00, Latency: 8},
			{HasDest: true, Dest: 7, Weight: 10},
		},
	}
}

var testProfile = Profile{
	FetchQ: 0.5, ROB: 0.5, Sched: 0.5, STQ: 0.2,
	LDQ: 0.2, Exec: 0.1, LiveRegs: 0.5,
}

// The ranking model must cover the real state space exactly: every
// registered element ranks (a miss is a loud error in Rank), and every
// model entry names a registered element (a stale entry means the pipeline
// dropped state the model still scores).
func TestModelCoversStateSpace(t *testing.T) {
	space := testSpace(t)
	rk, err := Rank(space, syntheticReport(), testProfile)
	if err != nil {
		t.Fatalf("Rank over the real state space: %v", err)
	}
	registered := make(map[string]bool)
	for _, e := range space.Elements() {
		registered[e.Name] = true
	}
	ranked := make(map[string]bool)
	for _, er := range rk.Elems {
		ranked[er.Name] = true
		if er.CostBits == 0 {
			t.Errorf("element %s has zero protection cost", er.Name)
		}
		if er.Mass < 0 {
			t.Errorf("element %s has negative mass", er.Name)
		}
	}
	for name := range registered {
		if !ranked[name] {
			t.Errorf("registered element %s missing from ranking", name)
		}
	}
	for name := range model {
		if !registered[name] {
			t.Errorf("model entry %s names no registered element — stale coefficient", name)
		}
	}
	// The ranking is sorted by failure mass per check bit, descending.
	for i := 1; i < len(rk.Elems); i++ {
		vi := rk.Elems[i-1].Mass / float64(rk.Elems[i-1].CostBits)
		vj := rk.Elems[i].Mass / float64(rk.Elems[i].CostBits)
		if vi < vj {
			t.Fatalf("ranking out of order at %d: %s (%.4g) before %s (%.4g)",
				i, rk.Elems[i-1].Name, vi, rk.Elems[i].Name, vj)
		}
	}
}

func TestKindRuleFollowsHardware(t *testing.T) {
	space := testSpace(t)
	rk, err := Rank(space, syntheticReport(), testProfile)
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range rk.Elems {
		want := Parity
		if er.Kind == pipeline.KindSRAM {
			want = ECC
		}
		if er.Prot != want {
			t.Errorf("%s (%v): assigned %v, want %v", er.Name, er.Kind, er.Prot, want)
		}
	}
}

func rankFor(t *testing.T) *Ranking {
	t.Helper()
	rk, err := Rank(testSpace(t), syntheticReport(), testProfile)
	if err != nil {
		t.Fatal(err)
	}
	return rk
}

func TestOptimizeBudgets(t *testing.T) {
	rk := rankFor(t)

	if p := Optimize("zero", rk, 0); len(p.Assign) != 0 || p.Predicted != 0 {
		t.Errorf("zero budget: got %d assignments, predicted %v", len(p.Assign), p.Predicted)
	}

	// The top-value element alone must be selected when the budget covers
	// exactly its cost.
	top := rk.Elems[0]
	p := Optimize("top", rk, top.CostBits)
	if got := p.ProtectionOf(top.Name); got != top.Prot {
		t.Errorf("budget %d: top element %s got %v, want %v", top.CostBits, top.Name, got, top.Prot)
	}
	if spent := rk.CostOf(p); spent > top.CostBits {
		t.Errorf("spent %d bits over budget %d", spent, top.CostBits)
	}

	// Budgets never overshoot, and a too-expensive element is skipped in
	// favor of later, cheaper ones rather than truncating the scan.
	for _, budget := range []uint64{64, 500, 1664, 10_000} {
		p := Optimize("b", rk, budget)
		if spent := rk.CostOf(p); spent > budget {
			t.Errorf("budget %d: spent %d", budget, spent)
		}
	}

	// An unbounded budget covers everything and predicts full coverage.
	var total uint64
	for _, er := range rk.Elems {
		total += er.CostBits
	}
	p = Optimize("all", rk, total)
	if len(p.Assign) != len(rk.Elems) {
		t.Errorf("full budget: %d of %d elements selected", len(p.Assign), len(rk.Elems))
	}
	if p.Predicted < 0.999 || p.Predicted > 1.001 {
		t.Errorf("full budget predicted %v, want 1", p.Predicted)
	}
}

func TestOptimizeSkipsTooExpensive(t *testing.T) {
	rk := &Ranking{
		Program: "synthetic",
		Elems: []ElemRank{
			{Name: "big", Prot: ECC, Words: 10, Bits: 640, CostBits: 100, Density: 1, Mass: 640},
			{Name: "small", Prot: Parity, Words: 4, Bits: 256, CostBits: 4, Density: 0.5, Mass: 128},
		},
		TotalMass: 768,
	}
	p := Optimize("skip", rk, 10)
	if p.ProtectionOf("big") != Unprotected {
		t.Error("big element selected over budget")
	}
	if p.ProtectionOf("small") != Parity {
		t.Error("cheap element after a too-expensive one was not selected")
	}
	if want := 128.0 / 768.0; p.Predicted != want {
		t.Errorf("predicted %v, want %v", p.Predicted, want)
	}
}

func TestEqualBudgetMatchesLowHangingFruit(t *testing.T) {
	space := testSpace(t)
	budget := EqualBudget(space)
	if st := Survey(space, LowHangingFruit()); budget != st.OverheadBits {
		t.Errorf("EqualBudget %d != LHF overhead %d", budget, st.OverheadBits)
	}
	if budget == 0 {
		t.Error("equal budget is zero")
	}
}

func TestPolicyJSONDeterministicRoundTrip(t *testing.T) {
	p := Optimize("static-budget/gzip", rankFor(t), 1664)
	p.BudgetBits = 1664

	a, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("repeated marshal differs")
	}

	// Decoding the wire form gives back every field of the policy, with
	// kinds and domains by name and the assignments in sorted order.
	var wire policyJSON
	if err := json.Unmarshal(a, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Name != p.Name || wire.Kind != p.Kind.String() || wire.BudgetBits != p.BudgetBits ||
		wire.Predicted != p.Predicted || len(wire.Assign) != len(p.Assign) {
		t.Fatalf("wire form %+v does not match the policy %+v", wire, p)
	}
	for i, a := range p.Assign {
		if w := wire.Assign[i]; w.Elem != a.Elem || w.Prot != a.Prot.String() {
			t.Errorf("assignment %d: wire %+v, policy %+v", i, w, a)
		}
		if i > 0 && p.Assign[i-1].Elem >= a.Elem {
			t.Errorf("assignments not sorted at %d: %s before %s", i, p.Assign[i-1].Elem, a.Elem)
		}
	}
}

func TestProtectionOfNilPolicy(t *testing.T) {
	var p *Policy
	if got := p.ProtectionOf("prf.val"); got != Unprotected {
		t.Errorf("nil policy ProtectionOf = %v, want Unprotected", got)
	}
	if got := (&Policy{Name: "none"}).ProtectionOf("prf.val"); got != Unprotected {
		t.Errorf("empty policy ProtectionOf = %v, want Unprotected", got)
	}
}

// LowHangingFruit is the paper's hardened placement (Section 5.2.2). A
// hardened microarchitectural campaign plans as harden=1 whatever the
// placement holds, so this pin is what ties the campaign IDs of existing
// fig6 journals to the placement they ran under: a change to the placement
// must come with new campaign IDs, not slip under the old ones.
func TestLowHangingFruitMatchesHarden(t *testing.T) {
	p := LowHangingFruit()
	if p.Name != "low-hanging-fruit" || p.Kind != KindHandPicked || p.BudgetBits != 0 || p.Predicted != 0 {
		t.Errorf("%s, kind %v, budget %d, predicted %v: want low-hanging-fruit, hand-picked, no budget",
			p.Name, p.Kind, p.BudgetBits, p.Predicted)
	}
	const placement = "archRAT=ecc,fq.pc=parity,fq.word=parity,freelist=ecc," +
		"prf.ready=ecc,prf.val=ecc,rob.ctl=parity,sched.flags=parity,sched.robIdx=parity," +
		"sched.src1=parity,sched.src2=parity,sched.src3=parity,specRAT=ecc"
	var got []string
	for _, a := range p.Assign {
		got = append(got, a.Elem+"="+a.Prot.String())
	}
	if g := strings.Join(got, ","); g != placement {
		t.Errorf("placement drifted:\n got %s\nwant %s", g, placement)
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range []Kind{KindNone, KindHandPicked, KindStaticBudget} {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "Kind(") || seen[name] {
			t.Errorf("kind %d has a missing or duplicate name %q", k, name)
		}
		seen[name] = true
	}
}

// Derive is deterministic: same benchmark, same options, byte-identical
// serialized policy.
func TestDeriveDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("derive runs a fault-free profile window")
	}
	opt := DeriveOptions{Seed: 11, Scale: 0.25}
	p1, rk1, err := Derive("mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	p2, rk2, err := Derive("mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.Marshal(p1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("derived policies differ:\n%s\n%s", j1, j2)
	}
	if rk1.TotalMass != rk2.TotalMass {
		t.Errorf("rankings differ: %v vs %v", rk1.TotalMass, rk2.TotalMass)
	}
	if p1.Kind != KindStaticBudget || len(p1.Assign) == 0 {
		t.Errorf("derived policy malformed: %+v", p1)
	}
	if p1.Predicted <= 0 || p1.Predicted > 1 {
		t.Errorf("predicted coverage %v out of (0,1]", p1.Predicted)
	}
}
