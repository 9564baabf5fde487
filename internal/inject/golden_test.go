package inject

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
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

			img := filepath.Join(t.TempDir(), "warm.golden")
			save := cfg
			save.GoldenImage = img
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
			if _, err := os.Stat(img); err != nil {
				t.Fatalf("golden image not written: %v", err)
			}

			load := cfg
			load.GoldenImage = img
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

			img := filepath.Join(t.TempDir(), "warm.golden")
			save := cfg
			save.GoldenImage = img
			save.Obs = obs.NewRegistry()
			saved, err := RunVM(save)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Trials, saved.Trials) {
				t.Fatal("trials differ between warm-up and warm-up-and-save runs")
			}
			if got := save.Obs.Counter("campaign_vm_golden_image_saved_total").Value(); got != 1 {
				t.Fatalf("saved_total = %d, want 1", got)
			}

			load := cfg
			load.GoldenImage = img
			load.Obs = obs.NewRegistry()
			loaded, err := RunVM(load)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Trials, loaded.Trials) {
				t.Fatal("trials differ between warm-up and golden-image runs")
			}
			if got := load.Obs.Counter("campaign_vm_golden_image_loaded_total").Value(); got != 1 {
				t.Fatalf("loaded_total = %d, want 1", got)
			}
		})
	}
}

// A golden image must only ever restore the warm-up it captured: loading it
// into a campaign with a different seed, scale or warm-up is refused.
func TestGoldenImageConfigMismatch(t *testing.T) {
	img := filepath.Join(t.TempDir(), "warm.golden")
	cfg := smallUArch(workload.Gzip)
	cfg.Points, cfg.TrialsPerPoint = 1, 2
	cfg.GoldenImage = img
	if _, err := RunUArch(cfg); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 99
	if _, err := RunUArch(other); !errors.Is(err, pipeline.ErrGoldenMismatch) {
		t.Fatalf("uarch seed mismatch: got %v, want ErrGoldenMismatch", err)
	}

	vimg := filepath.Join(t.TempDir(), "vm.golden")
	vcfg := smallVM(workload.Gzip, false)
	vcfg.Trials, vcfg.Points = 8, 2
	vcfg.GoldenImage = vimg
	if _, err := RunVM(vcfg); err != nil {
		t.Fatal(err)
	}
	vother := vcfg
	vother.Warmup = vcfg.Warmup + 1
	if _, err := RunVM(vother); !errors.Is(err, pipeline.ErrGoldenMismatch) {
		t.Fatalf("vm warmup mismatch: got %v, want ErrGoldenMismatch", err)
	}
}

// Golden images compose with durable sharded campaigns: two shards sharing
// one image (the second loads what the first saved) merge into the same
// result as an unsharded run.
func TestGoldenImageWithShardedResume(t *testing.T) {
	cfg := smallVM(workload.Gzip, false)
	cfg.Trials, cfg.Points = 16, 4
	whole, err := RunVM(cfg)
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	img := filepath.Join(root, "warm.golden")
	parts := make([]*VMResult, 2)
	for i := range parts {
		sc := cfg
		sc.GoldenImage = img
		sc.ResumeFrom = filepath.Join(root, "shard", string(rune('0'+i)))
		sc.ShardIndex, sc.ShardCount = i, 2
		parts[i], err = RunVM(sc)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	mcfg := cfg
	mcfg.Exec = mergeShards(t, []string{
		filepath.Join(root, "shard", "0"),
		filepath.Join(root, "shard", "1"),
	})
	merged, err := RunVM(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole.Trials, merged.Trials) {
		t.Fatal("merged sharded golden-image trials differ from one-shot run")
	}
}
