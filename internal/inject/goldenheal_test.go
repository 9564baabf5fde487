package inject

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// A structurally invalid golden image — a torn copy, bit rot, a file that was
// never an image — must behave exactly like an absent one: the campaign warms
// up from scratch, rewrites the image atomically, and produces byte-identical
// results. Only a healthy image of a DIFFERENT warm-up stays a hard error
// (overwriting it would destroy that warm-up).

func TestUArchGoldenImageSelfHealsInvalidFile(t *testing.T) {
	cfg := smallUArch(workload.Gzip)
	cfg.Points, cfg.TrialsPerPoint = 2, 4
	plain, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for name, corrupt := range map[string]func(t *testing.T, path string){
		"garbage": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("this was never a golden image"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty": func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, path string) {
			// A valid image cut in half: the torn-copy case.
			save := cfg
			save.GoldenImageDir = filepath.Dir(path)
			if _, err := RunUArch(save); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()/2); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			heal := cfg
			heal.GoldenImageDir = t.TempDir()
			corrupt(t, heal.goldenImage())
			heal.Obs = obs.NewRegistry()
			healed, err := RunUArch(heal)
			if err != nil {
				t.Fatalf("campaign did not self-heal: %v", err)
			}
			if !reflect.DeepEqual(plain.Trials, healed.Trials) {
				t.Fatal("self-healed trials differ from warm-up run")
			}
			if got := heal.Obs.Counter("campaign_uarch_golden_image_invalid_total").Value(); got != 1 {
				t.Fatalf("invalid_total = %d, want 1", got)
			}
			if got := heal.Obs.Counter("campaign_uarch_golden_image_saved_total").Value(); got != 1 {
				t.Fatalf("saved_total = %d, want 1 (image not rewritten)", got)
			}

			// The rewritten image is complete: the next run loads it.
			load := cfg
			load.GoldenImageDir = heal.GoldenImageDir
			load.Obs = obs.NewRegistry()
			loaded, err := RunUArch(load)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Trials, loaded.Trials) {
				t.Fatal("trials differ after reloading the healed image")
			}
			if got := load.Obs.Counter("campaign_uarch_golden_image_loaded_total").Value(); got != 1 {
				t.Fatalf("loaded_total = %d, want 1", got)
			}
		})
	}
}

// Self-healing must not extend to mismatched-but-healthy images.
func TestGoldenImageMismatchIsNotHealed(t *testing.T) {
	cfg := smallUArch(workload.Gzip)
	cfg.Points, cfg.TrialsPerPoint = 1, 2
	cfg.GoldenImageDir = t.TempDir()
	before := mismatchedImage(t, cfg)
	cfg.Obs = obs.NewRegistry()
	if _, err := RunUArch(cfg); !errors.Is(err, pipeline.ErrGoldenMismatch) {
		t.Fatalf("mismatched image: got %v, want ErrGoldenMismatch", err)
	}
	for _, c := range []string{"invalid", "saved"} {
		if got := cfg.Obs.Counter("campaign_uarch_golden_image_" + c + "_total").Value(); got != 0 {
			t.Fatalf("%s_total = %d for a mismatched image, want 0", c, got)
		}
	}
	after, err := os.ReadFile(cfg.goldenImage())
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("mismatched image was overwritten")
	}
}

// An interruption that fires before the campaign's first point — the
// tightest window around the golden-image write — must never leave a
// partially-written image: ckptio's temp+fsync+rename path publishes the
// image completely or not at all, and the campaign returns ErrInterrupted
// only after the write is durable.
func TestInterruptAroundGoldenImageWriteLeavesCompleteImage(t *testing.T) {
	cfg := smallUArch(workload.Gzip)
	cfg.Points, cfg.TrialsPerPoint = 2, 4
	cfg.GoldenImageDir = t.TempDir()
	img := cfg.goldenImage()
	// A stale temp file from a hypothetical earlier crash must be inert.
	stale := img + ".tmp-stale"
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	pre := make(chan struct{})
	close(pre) // interrupt already pending when the campaign starts

	cfg.Interrupt = pre
	if _, err := RunUArch(cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got %v, want ErrInterrupted", err)
	}

	// The image exists and is complete despite the interruption; no partial
	// temp files were published over it.
	cont := cfg
	cont.Interrupt = nil
	cont.Obs = obs.NewRegistry()
	res, err := RunUArch(cont)
	if err != nil {
		t.Fatalf("image written during interrupted run does not load: %v", err)
	}
	if got := cont.Obs.Counter("campaign_uarch_golden_image_loaded_total").Value(); got != 1 {
		t.Fatalf("loaded_total = %d, want 1", got)
	}
	plain := smallUArch(workload.Gzip)
	plain.Points, plain.TrialsPerPoint = 2, 4
	want, err := RunUArch(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Trials, res.Trials) {
		t.Fatal("trials differ after resuming from the interrupted run's image")
	}

	// The only non-temp artifact in the directory is the finished image.
	entries, err := os.ReadDir(cfg.GoldenImageDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == filepath.Base(img) || e.Name() == filepath.Base(stale) {
			continue
		}
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s after interrupted run", e.Name())
		}
		t.Fatalf("unexpected file %s in golden-image directory", e.Name())
	}
}
