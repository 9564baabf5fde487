package inject

import (
	"path/filepath"
	"testing"

	"repro/internal/protect"
	"repro/internal/workload"
)

// The hardened campaign must stay deterministic across worker counts and
// sharding, and must visit the exact trial plan of the unprotected campaign
// at the same seed — the pick-before-protection property every offline
// policy comparison in internal/experiments rests on.
func TestUArchPolicyCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	pol := protect.LowHangingFruit()

	base := resumeUArch("gzip")
	baseline, err := RunUArch(base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := resumeUArch("gzip")
	cfg.Hardened = true
	serial, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg = resumeUArch("gzip")
	cfg.Hardened = true
	cfg.Workers = 3
	parallel, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameUArchResults(t, "serial vs parallel", serial, parallel)

	dirs := []string{filepath.Join(t.TempDir(), "s0"), filepath.Join(t.TempDir(), "s1")}
	for i, d := range dirs {
		scfg := resumeUArch("gzip")
		scfg.Hardened = true
		scfg.ResumeFrom = d
		scfg.ShardIndex, scfg.ShardCount = i, 2
		scfg.Workers = 2
		if _, err := RunUArch(scfg); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	mcfg := resumeUArch("gzip")
	mcfg.Hardened = true
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

// The hardened campaign repeats the plain one slot for slot: protection is
// asked only after each pre-drawn pick, so both campaigns visit the same
// points, elements and bits, and a slot the placement leaves unprotected runs
// exactly as it does on the plain pipeline. Deriving the hardened campaign
// from the plain one rests on this, on every benchmark and with latches only.
func TestUArchPolicyRepeatsPlainCampaign(t *testing.T) {
	lhf := protect.LowHangingFruit()
	for _, bench := range workload.Benchmarks() {
		for _, latches := range []bool{false, true} {
			name := string(bench)
			if latches {
				name += "/latches"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := smallUArch(bench)
				cfg.LatchesOnly = latches
				plain, err := RunUArch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Hardened = true
				hard, err := RunUArch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(hard.Trials) != len(plain.Trials) {
					t.Fatalf("hardened campaign ran %d trials, plain %d", len(hard.Trials), len(plain.Trials))
				}
				protected := 0
				for i, p := range plain.Trials {
					h := hard.Trials[i]
					if h.PointCycle != p.PointCycle || h.Elem != p.Elem || h.Bit != p.Bit || h.IsLatch != p.IsLatch {
						t.Fatalf("slot %d picks differ:\n plain    %+v\n hardened %+v", i, p, h)
					}
					if want := lhf.ProtectionOf(h.Elem) != protect.Unprotected; h.Protected != want {
						t.Errorf("slot %d (%s): Protected %v, placement covers %v", i, h.Elem, h.Protected, want)
					}
					if h.Protected {
						protected++
					} else if h != p {
						t.Errorf("unprotected slot %d differs:\n plain    %+v\n hardened %+v", i, p, h)
					}
				}
				if protected == 0 || protected == len(plain.Trials) {
					t.Errorf("%d of %d slots protected; the comparison needs both kinds", protected, len(plain.Trials))
				}
				t.Logf("%d of %d slots protected", protected, len(plain.Trials))
			})
		}
	}
}

// Hardening is part of the campaign plan: resuming a hardened journal as a
// plain campaign must be refused, not silently blended.
func TestUArchPolicyEntersPlan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeUArch("gzip")
	cfg.Hardened = true
	cfg.ResumeFrom = dir
	if _, err := RunUArch(cfg); err != nil {
		t.Fatal(err)
	}

	other := resumeUArch("gzip")
	other.ResumeFrom = dir
	if _, err := RunUArch(other); err == nil {
		t.Fatal("resuming a hardened campaign without hardening succeeded")
	}
}
