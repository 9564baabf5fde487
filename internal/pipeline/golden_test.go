package pipeline

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// runTo warms a fresh gzip pipeline by n cycles.
func warmPipeline(t *testing.T, cfg Config, cycles uint64) *Pipeline {
	t.Helper()
	p := newBenchPipeline(t, workload.Gzip, cfg)
	p.RunCycles(cycles)
	return p
}

// TestGoldenImageRoundTrip proves the tentpole contract at the pipeline
// level: a warmed pipeline saved to a golden image and loaded into a fresh
// pipeline is bit-identical — same state hash, same memory image, same
// stats — and stays in lockstep with the original for thousands of further
// cycles.
func TestGoldenImageRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	src := warmPipeline(t, cfg, 20_000)
	path := filepath.Join(t.TempDir(), "gzip.golden")
	meta := []byte("test|gzip|golden")
	st, err := src.WriteGoldenImage(path, meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames < goldenFixedFrames+1 || st.StoredBytes == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}

	dst := newBenchPipeline(t, workload.Gzip, cfg)
	if err := dst.LoadGoldenImage(path, meta, 4); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.space.Hash(), src.space.Hash(); got != want {
		t.Fatalf("state hash after load %#x, want %#x", got, want)
	}
	if !dst.mem.Equal(src.mem) {
		addr, _ := dst.mem.FirstDifference(src.mem)
		t.Fatalf("memory differs after load (first at %#x)", addr)
	}
	if dst.Stats() != src.Stats() {
		t.Fatalf("stats differ after load:\n got %+v\nwant %+v", dst.Stats(), src.Stats())
	}
	if dst.status != src.status || dst.cycle != src.cycle {
		t.Fatalf("bookkeeping differs: status %v/%v cycle %d/%d", dst.status, src.status, dst.cycle, src.cycle)
	}
	// The restored machine must continue exactly as the original does.
	for i := 0; i < 5; i++ {
		src.RunCycles(1_000)
		dst.RunCycles(1_000)
		if src.space.Hash() != dst.space.Hash() {
			t.Fatalf("diverged within %d cycles after restore", (i+1)*1000)
		}
	}
	if !dst.mem.Equal(src.mem) {
		t.Fatal("memory diverged after restore")
	}
}

// TestGoldenImageWorkerAndModeIdentical writes the same pipeline at several
// worker counts and asserts the files are byte-identical, and that loading
// with different worker counts restores the identical state.
func TestGoldenImageWorkerAndModeIdentical(t *testing.T) {
	cfg := DefaultConfig()
	src := warmPipeline(t, cfg, 10_000)
	dir := t.TempDir()
	meta := []byte("test|gzip|workers")
	var base []byte
	for _, workers := range []int{1, 3, 8} {
		path := filepath.Join(dir, "img")
		if _, err := src.WriteGoldenImage(path, meta, workers); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = data
		} else if !bytes.Equal(base, data) {
			t.Fatalf("golden image bytes differ at workers=%d", workers)
		}
		dst := newBenchPipeline(t, workload.Gzip, cfg)
		if err := dst.LoadGoldenImage(path, meta, workers); err != nil {
			t.Fatal(err)
		}
		if dst.space.Hash() != src.space.Hash() {
			t.Fatalf("restored hash differs at workers=%d", workers)
		}
	}
}

// TestGoldenImageRefusesMismatch pins the refusal paths: wrong meta, and a
// differently configured pipeline (different state-space shape).
func TestGoldenImageRefusesMismatch(t *testing.T) {
	cfg := DefaultConfig()
	src := warmPipeline(t, cfg, 5_000)
	path := filepath.Join(t.TempDir(), "img")
	if _, err := src.WriteGoldenImage(path, []byte("meta-a"), 2); err != nil {
		t.Fatal(err)
	}
	dst := newBenchPipeline(t, workload.Gzip, cfg)
	if err := dst.LoadGoldenImage(path, []byte("meta-b"), 2); !errors.Is(err, ErrGoldenMismatch) {
		t.Fatalf("wrong meta: got %v, want ErrGoldenMismatch", err)
	}
	other := cfg
	other.Confidence = ConfidencePerfect
	dp := newBenchPipeline(t, workload.Gzip, other)
	if err := dp.LoadGoldenImage(path, []byte("meta-a"), 2); !errors.Is(err, ErrGoldenMismatch) {
		t.Fatalf("JRS-state mismatch: got %v, want ErrGoldenMismatch", err)
	}
}
