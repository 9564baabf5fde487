package pipeline

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
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

// goldenImageSHA256 pins the SHA-256 of the golden image of each benchmark
// (seed 42, scale 1.0) after a campaign's default 10,000-cycle warm-up. Any
// change to the frame layout, the state serialisers or ckptio's codecs that
// moves a byte of an image shows here.
var goldenImageSHA256 = map[workload.Benchmark]string{
	workload.Bzip2:  "ab5f083dd85f663ed66e31714711c0501de1544eea2b0c0c0e437ecf490541bc",
	workload.Gap:    "4fd1ca6745fe074b2761393204132038a665b78a7a9d3e673242bebdad6897ae",
	workload.GCC:    "5f3bd389400364ffe1d2eea1ec656ebe1f8ac05bab470c9fb40c9f1011602f62",
	workload.Gzip:   "1039736082fc773fa7ca07eba29290ec675c1148e0e741001e810ed8b75cb28b",
	workload.MCF:    "30e0240963dbf811e6608ffd2c9a028376e76b717ff05579080cb15d47739adc",
	workload.Parser: "f8f33db1055f660ff57e63640cba903878f13584d49a2e7ead77224ba6316af1",
	workload.Vortex: "2d8d1798ef1cebe7e2a1b44e2982dd8459c694a7fa39822d9a73023f0051cc05",
}

// TestGoldenImageBytesPinned writes each benchmark's warmed-up pipeline at 1
// and 4 workers and compares the file's SHA-256 with the pinned one.
func TestGoldenImageBytesPinned(t *testing.T) {
	dir := t.TempDir()
	meta := []byte("pinned-image")
	for _, bench := range workload.Benchmarks() {
		prog := workload.MustGenerate(bench, workload.Config{Seed: 42, Scale: 1.0})
		m, err := prog.NewMemory()
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(DefaultConfig(), m, prog.Entry)
		if err != nil {
			t.Fatal(err)
		}
		p.RunCycles(10_000)
		for _, workers := range []int{1, 4} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.golden", bench, workers))
			if _, err := p.WriteGoldenImage(path, meta, workers); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != goldenImageSHA256[bench] {
				t.Errorf("%s at %d workers: image SHA-256 %s, want %s", bench, workers, got, goldenImageSHA256[bench])
			}
		}
	}
}
