package inject

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/campaignio"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Campaign outputs pinned across commits. The equivalence, parallel and
// durability tests compare variants against each other within one build;
// this test compares the build against digests committed with it, so a
// refactor that shifts every variant the same way (an RNG draw order, a
// field in the trial JSON, a manifest byte) still fails. Regenerate with
//
//	go test ./internal/inject -run TestCampaignDigests -update-digests
//
// only when an output change is intended.

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/campaign_digests.json from this build")

const digestFile = "testdata/campaign_digests.json"

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func trialDigest(t *testing.T, trials any) string {
	t.Helper()
	b, err := json.Marshal(trials)
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex(b)
}

// mergedDigests runs a campaign as two durable shards (one serial, one on
// two workers), merges them into a fresh directory and digests the merged
// manifest and journal bytes.
func mergedDigests(t *testing.T, run func(dir string, shard, workers int) error) (manifest, journal string) {
	t.Helper()
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "s0"), filepath.Join(root, "s1")}
	for i, d := range dirs {
		if err := run(d, i, 2*i); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	out := mergeShards(t, dirs).ResumeFrom
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		return sha256Hex(b)
	}
	return read(campaignio.ManifestName), read(campaignio.JournalName)
}

func TestCampaignDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign digests run every benchmark")
	}
	var mu sync.Mutex
	got := map[string]string{}
	put := func(key, digest string) {
		mu.Lock()
		got[key] = digest
		mu.Unlock()
	}
	uarch := func(key string, mut func(*UArchConfig)) func(*testing.T) {
		return func(t *testing.T) {
			t.Parallel()
			cfg := smallUArch(workload.Gzip)
			mut(&cfg)
			r, err := RunUArch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			put(key, trialDigest(t, r.Trials))
		}
	}
	vm := func(key string, mut func(*VMConfig)) func(*testing.T) {
		return func(t *testing.T) {
			t.Parallel()
			cfg := smallVM(workload.Gzip, false)
			mut(&cfg)
			r, err := RunVM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			put(key, trialDigest(t, r.Trials))
		}
	}

	t.Run("campaigns", func(t *testing.T) {
		for _, bench := range workload.Benchmarks() {
			bench := bench
			t.Run("uarch/"+string(bench), uarch("uarch/"+string(bench), func(c *UArchConfig) { *c = smallUArch(bench) }))
			t.Run("vm/"+string(bench), vm("vm/"+string(bench), func(c *VMConfig) { *c = smallVM(bench, false) }))
		}
		t.Run("uarch/gzip/latches-only", uarch("uarch/gzip/latches-only", func(c *UArchConfig) { c.LatchesOnly = true }))
		t.Run("uarch/gzip/harden-lhf", uarch("uarch/gzip/harden-lhf", func(c *UArchConfig) { c.Hardened = true }))
		t.Run("uarch/gzip/burst2", uarch("uarch/gzip/burst2", func(c *UArchConfig) { c.BurstBits = 2 }))
		t.Run("uarch/gzip/workers4", uarch("uarch/gzip/workers4", func(c *UArchConfig) { c.Workers = 4 }))
		t.Run("uarch/mcf/truncated", uarch("uarch/mcf/truncated", func(c *UArchConfig) {
			*c = smallUArch(workload.MCF)
			pcfg := pipeline.DefaultConfig()
			pcfg.WatchdogCycles = 64 // see TestUArchTruncatedCampaign
			c.Pipeline = &pcfg
		}))
		t.Run("vm/gzip/low32", vm("vm/gzip/low32", func(c *VMConfig) { c.Low32 = true }))
		t.Run("vm/gzip/workers4", vm("vm/gzip/workers4", func(c *VMConfig) { c.Workers = 4 }))

		t.Run("durable/uarch/gzip", func(t *testing.T) {
			t.Parallel()
			m, j := mergedDigests(t, func(dir string, shard, workers int) error {
				cfg := resumeUArch(workload.Gzip)
				cfg.ResumeFrom = dir
				cfg.ShardIndex, cfg.ShardCount = shard, 2
				cfg.Workers = workers
				_, err := RunUArch(cfg)
				return err
			})
			put("durable/uarch/gzip/manifest", m)
			put("durable/uarch/gzip/journal", j)
		})
		t.Run("durable/vm/gzip", func(t *testing.T) {
			t.Parallel()
			m, j := mergedDigests(t, func(dir string, shard, workers int) error {
				cfg := resumeVM(workload.Gzip)
				cfg.ResumeFrom = dir
				cfg.ShardIndex, cfg.ShardCount = shard, 2
				cfg.Workers = workers
				_, err := RunVM(cfg)
				return err
			})
			put("durable/vm/gzip/manifest", m)
			put("durable/vm/gzip/journal", j)
		})
	})
	if t.Failed() {
		return
	}

	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestFile)
		return
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %q, committed %q", k, got[k], want[k])
		}
	}
}

// Campaign IDs pinned across commits. A campaign directory and its golden
// images are named by CampaignID, so an ID that drifts orphans every
// directory journalled before the change. TestCampaignDigests pins trials,
// not IDs; this table pins the IDs themselves.
func TestCampaignIDsPinned(t *testing.T) {
	hardened := smallUArch(workload.Gzip)
	hardened.Hardened = true
	for _, tc := range []struct {
		name, got, want string
	}{
		{"uarch", smallUArch(workload.Gzip).CampaignID(), "uarch-gzip-7d935e59c293a96d"},
		{"uarch/low-hanging-fruit", hardened.CampaignID(), "uarch-gzip-13a5567b55019468"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: CampaignID %s, pinned %s", tc.name, tc.got, tc.want)
		}
	}
}
