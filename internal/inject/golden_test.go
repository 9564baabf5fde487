package inject

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/protect"
	"repro/internal/workload"
)

// The golden-image contract: a campaign that saves the warm-up boundary to a
// golden image, and a campaign that loads it, both produce byte-identical
// trials to a campaign that warms up from scratch — on every benchmark.

func TestUArchGoldenImageEquivalence(t *testing.T) {
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			cfg := smallUArch(bench)
			cfg.Points = 2
			cfg.TrialsPerPoint = 4
			plain, err := RunUArch(cfg)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			save := cfg
			save.GoldenImageDir = dir
			save.Obs = obs.NewRegistry()
			saved, err := RunUArch(save)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Trials, saved.Trials) {
				t.Fatal("trials differ between warm-up and warm-up-and-save runs")
			}
			if got := save.Obs.Counter("campaign_uarch_golden_image_saved_total").Value(); got != 1 {
				t.Fatalf("saved_total = %d, want 1", got)
			}
			if save.Obs.Counter("campaign_uarch_golden_image_stored_bytes_total").Value() == 0 {
				t.Fatal("stored bytes not recorded")
			}
			if _, err := os.Stat(save.goldenImage()); err != nil {
				t.Fatalf("golden image not written: %v", err)
			}

			load := cfg
			load.GoldenImageDir = dir
			load.Obs = obs.NewRegistry()
			loaded, err := RunUArch(load)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Trials, loaded.Trials) {
				t.Fatal("trials differ between warm-up and golden-image runs")
			}
			if got := load.Obs.Counter("campaign_uarch_golden_image_loaded_total").Value(); got != 1 {
				t.Fatalf("loaded_total = %d, want 1", got)
			}
			if got := load.Obs.Counter("campaign_uarch_golden_image_saved_total").Value(); got != 0 {
				t.Fatalf("saved_total = %d on a load run, want 0", got)
			}
		})
	}
}

// VM campaigns keep no golden image: with GoldenImageDir set they produce the
// same trials, write nothing and count no image.
func TestVMGoldenImageEquivalence(t *testing.T) {
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			cfg := smallVM(bench, false)
			cfg.Trials = 24
			cfg.Points = 4
			plain, err := RunVM(cfg)
			if err != nil {
				t.Fatal(err)
			}

			img := cfg
			img.GoldenImageDir = t.TempDir()
			img.Obs = obs.NewRegistry()
			got, err := RunVM(img)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Trials, got.Trials) {
				t.Fatal("trials differ with GoldenImageDir set")
			}
			entries, err := os.ReadDir(img.GoldenImageDir)
			if err != nil || len(entries) != 0 {
				t.Fatalf("golden-image directory holds %d entries (err %v), want none", len(entries), err)
			}
			for _, c := range []string{"loaded", "saved", "invalid"} {
				if n := img.Obs.Counter("campaign_vm_golden_image_" + c + "_total").Value(); n != 0 {
					t.Fatalf("campaign_vm_golden_image_%s_total = %d, want 0", c, n)
				}
			}
		})
	}
}

// mismatchedImage runs cfg's campaign at another seed with cfg's image
// directory, copies the image that run saved under cfg's image name, and
// returns the copied bytes. The copy is a healthy image of a different
// warm-up.
func mismatchedImage(t *testing.T, cfg UArchConfig) []byte {
	t.Helper()
	other := cfg
	other.Seed = cfg.Seed + 92
	if _, err := RunUArch(other); err != nil {
		t.Fatal(err)
	}
	if other.goldenImage() == cfg.goldenImage() {
		t.Fatal("two warm-ups share one image name")
	}
	data, err := os.ReadFile(other.goldenImage())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.goldenImage(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// A golden image must only ever restore the warm-up it captured. Each input
// of the warm-up names a different image and every other input the same one,
// and an image of another warm-up found under the configuration's name is
// refused and left as it is.
func TestGoldenImageConfigMismatch(t *testing.T) {
	cfg := smallUArch(workload.Gzip)
	cfg.Points, cfg.TrialsPerPoint = 1, 2
	cfg.GoldenImageDir = t.TempDir()
	perfect := pipeline.DefaultConfig()
	perfect.Confidence = pipeline.ConfidencePerfect
	for name, c := range map[string]struct {
		edit func(*UArchConfig)
		same bool
	}{
		"seed":     {func(c *UArchConfig) { c.Seed++ }, false},
		"scale":    {func(c *UArchConfig) { c.Scale = 0.25 }, false},
		"warm-up":  {func(c *UArchConfig) { c.WarmupCycles++ }, false},
		"pipeline": {func(c *UArchConfig) { c.Pipeline = &perfect }, false},
		"points":   {func(c *UArchConfig) { c.Points, c.SpreadCycles = 3, 7_000 }, true},
		"window":   {func(c *UArchConfig) { c.WindowCycles = 2_000 }, true},
		"latches":  {func(c *UArchConfig) { c.LatchesOnly = true }, true},
		"policy":   {func(c *UArchConfig) { c.Policy = protect.LowHangingFruit() }, true},
	} {
		other := cfg
		c.edit(&other)
		if got := other.goldenImage() == cfg.goldenImage(); got != c.same {
			t.Errorf("changing the %s: same image name = %v, want %v", name, got, c.same)
		}
	}

	before := mismatchedImage(t, cfg)
	if _, err := RunUArch(cfg); !errors.Is(err, pipeline.ErrGoldenMismatch) {
		t.Fatalf("uarch seed mismatch: got %v, want ErrGoldenMismatch", err)
	}
	after, err := os.ReadFile(cfg.goldenImage())
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("mismatched image was overwritten")
	}
}

// Golden images compose with durable sharded campaigns: two shards sharing
// one image (the second loads what the first saved) merge into the same
// result as an unsharded run.
func TestGoldenImageWithShardedResume(t *testing.T) {
	cfg := smallUArch(workload.Gzip)
	cfg.Points, cfg.TrialsPerPoint = 4, 4
	whole, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	for i, want := range []string{"saved", "loaded"} {
		sc := cfg
		sc.GoldenImageDir = filepath.Join(root, "golden")
		sc.ResumeFrom = filepath.Join(root, "shard", string(rune('0'+i)))
		sc.ShardIndex, sc.ShardCount = i, 2
		sc.Obs = obs.NewRegistry()
		if _, err := RunUArch(sc); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if got := sc.Obs.Counter("campaign_uarch_golden_image_" + want + "_total").Value(); got != 1 {
			t.Fatalf("shard %d: %s_total = %d, want 1", i, want, got)
		}
	}
	mcfg := cfg
	mcfg.Exec = mergeShards(t, []string{
		filepath.Join(root, "shard", "0"),
		filepath.Join(root, "shard", "1"),
	})
	merged, err := RunUArch(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole.Trials, merged.Trials) {
		t.Fatal("merged sharded golden-image trials differ from one-shot run")
	}
}
