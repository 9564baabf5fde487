package inject

import (
	"path/filepath"
	"testing"

	"repro/internal/protect"
)

// testPolicy is a small static-budget policy mixing a parity latch domain
// with the ECC register-file domain. Assignments are listed in sorted
// element order, matching what the constructors produce.
func testPolicy() *protect.Policy {
	return &protect.Policy{
		Name: "test-policy", Kind: protect.KindStaticBudget, BudgetBits: 1300,
		Assign: []protect.Assignment{
			{Elem: "fetchPC", Prot: protect.Parity},
			{Elem: "prf.val", Prot: protect.ECC},
			{Elem: "rob.flags", Prot: protect.Parity},
		},
	}
}

// A campaign under a protection policy must stay deterministic across
// worker counts and sharding, and must visit the exact trial plan of the
// unprotected campaign at the same seed — the pick-before-consult property
// every offline policy comparison in internal/experiments rests on.
func TestUArchPolicyCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	pol := testPolicy()

	base := resumeUArch("gzip")
	baseline, err := RunUArch(base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := resumeUArch("gzip")
	cfg.Policy = pol
	serial, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg = resumeUArch("gzip")
	cfg.Policy = pol
	cfg.Workers = 3
	parallel, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameUArchResults(t, "serial vs parallel", serial, parallel)

	dirs := []string{filepath.Join(t.TempDir(), "s0"), filepath.Join(t.TempDir(), "s1")}
	for i, d := range dirs {
		scfg := resumeUArch("gzip")
		scfg.Policy = pol
		scfg.ResumeFrom = d
		scfg.ShardIndex, scfg.ShardCount = i, 2
		scfg.Workers = 2
		if _, err := RunUArch(scfg); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	mcfg := resumeUArch("gzip")
	mcfg.Policy = pol
	mcfg.Exec = mergeShards(t, dirs)
	merged, err := RunUArch(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	sameUArchResults(t, "shard+merge", serial, merged)

	// Pick identity with the unprotected baseline: same points, same
	// elements, same bits, slot for slot. Protection changes outcomes,
	// never picks.
	if len(serial.Trials) != len(baseline.Trials) {
		t.Fatalf("policy campaign visited %d trials, baseline %d", len(serial.Trials), len(baseline.Trials))
	}
	covered := 0
	for i := range baseline.Trials {
		b, s := baseline.Trials[i], serial.Trials[i]
		if b.PointCycle != s.PointCycle || b.Elem != s.Elem || b.Bit != s.Bit {
			t.Fatalf("trial %d picks diverged under policy:\n  baseline %+v\n  policy   %+v", i, b, s)
		}
		wantProt := pol.ProtectionOf(s.Elem) != protect.Unprotected
		if s.Protected != wantProt {
			t.Errorf("trial %d (%s): Protected=%v, policy covers=%v", i, s.Elem, s.Protected, wantProt)
		}
		if s.Protected {
			covered++
			if s.Failing() {
				t.Errorf("trial %d (%s): protected flip classified as failing", i, s.Elem)
			}
		}
	}
	if covered == 0 {
		t.Error("no trial landed in a policy-covered element; pick-identity check is vacuous")
	}
}

// The policy fingerprint is part of the campaign plan: resuming a journal
// under a different policy must be refused, not silently blended.
func TestUArchPolicyEntersPlan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeUArch("gzip")
	cfg.Policy = testPolicy()
	cfg.ResumeFrom = dir
	if _, err := RunUArch(cfg); err != nil {
		t.Fatal(err)
	}

	other := resumeUArch("gzip")
	other.Policy = nil
	other.ResumeFrom = dir
	if _, err := RunUArch(other); err == nil {
		t.Fatal("resuming a policy campaign without its policy succeeded")
	}
}
