package pipeline

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/ckptio"
	"repro/internal/workload"
)

// FuzzLoadGoldenImage feeds LoadGoldenImage a warmed gzip image with one
// buffer cut short and/or overwritten by a patch, re-encoded with valid CRCs
// so the input gets past ckptio and reaches the loader's own shape checks
// and the predictor, cache and memory decoders. The loader must not panic. An
// image it accepts must step 200 cycles without panicking, and saving the
// accepted state and loading that image again must give the same state hash
// and memory.
func FuzzLoadGoldenImage(f *testing.F) {
	prog := workload.MustGenerate(workload.Gzip, workload.Config{Seed: 42, Scale: 0.25})
	fresh := func(t testing.TB) *Pipeline {
		m, err := prog.NewMemory()
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(DefaultConfig(), m, prog.Entry)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	meta := []byte("fuzz|gzip")
	warm := fresh(f)
	warm.RunCycles(2_000)
	path := filepath.Join(f.TempDir(), "warm.golden")
	if _, err := warm.WriteGoldenImage(path, meta, 1); err != nil {
		f.Fatal(err)
	}
	img, err := ckptio.Open(path)
	if err != nil {
		f.Fatal(err)
	}
	frames, err := img.ReadAll(1)
	if err != nil {
		f.Fatal(err)
	}
	styles := make([]ckptio.Style, len(frames))
	for i := range styles {
		styles[i] = img.FrameStyle(i)
	}

	// Seeds: the pristine image, then a cut or a patch in every frame kind
	// (meta, bookkeeping and its shape guard, stragglers, an extent, each
	// predictor and cache buffer, a memory chunk and its page count).
	nExt := uint16(len(warm.space.extents))
	const whole = math.MaxUint32
	f.Add(uint16(0), uint16(0), uint32(whole), uint32(0), []byte(nil))
	f.Add(uint16(0), uint16(0), uint32(whole), uint32(0), []byte("uarch|other"))
	f.Add(uint16(1), uint16(0), uint32(10), uint32(0), []byte(nil))
	f.Add(uint16(1), uint16(0), uint32(whole), uint32(0), []byte{0xff})
	f.Add(uint16(1), uint16(0), uint32(whole), uint32(27), []byte{7, 0xff, 1})
	f.Add(uint16(2), uint16(0), uint32(8), uint32(0), []byte(nil))
	f.Add(uint16(3), uint16(0), uint32(whole), uint32(5), []byte{1, 2, 3})
	for b := uint16(0); b < 5; b++ {
		f.Add(3+nExt, b, uint32(3), uint32(0), []byte(nil))
		f.Add(3+nExt, b, uint32(whole), uint32(1), []byte{0x80, 0x7f})
		f.Add(4+nExt, b, uint32(whole), uint32(0), []byte{0xff, 0xff, 0xff, 0xff})
	}
	f.Add(5+nExt, uint16(0), uint32(100), uint32(0), []byte(nil))
	f.Add(5+nExt, uint16(0), uint32(whole), uint32(0), []byte{0xff})
	// A 9-byte memory image whose page count, 0x71cffd80b3cd6e39, times the
	// 8201-byte page record wraps to 1 (mem.TestLoadStateRefusesWrappingPageCount).
	f.Add(5+nExt, uint16(0), uint32(9), uint32(0), []byte{0x39, 0x6e, 0xcd, 0xb3, 0x80, 0xfd, 0xcf, 0x71})

	f.Fuzz(func(t *testing.T, frame, buf uint16, cut, at uint32, patch []byte) {
		fi := int(frame) % len(frames)
		if len(frames[fi]) == 0 {
			return
		}
		bi := int(buf) % len(frames[fi])
		b := bytes.Clone(frames[fi][bi])
		if int64(cut) < int64(len(b)) {
			b = b[:cut]
		}
		// Overwrite b[pos:pos+len(patch)], growing b if the patch runs past
		// its end.
		pos := int(at % uint32(len(b)+1))
		b = append(b[:pos:pos], append(bytes.Clone(patch), b[min(pos+len(patch), len(b)):]...)...)

		w := ckptio.NewWriter()
		for i, bufs := range frames {
			fw := w.Frame(styles[i])
			for j, data := range bufs {
				if i == fi && j == bi {
					data = b
				}
				fw.Add(data)
			}
		}
		dir := t.TempDir()
		mutated := filepath.Join(dir, "mutated.golden")
		if err := w.WriteFile(mutated, 1); err != nil {
			t.Fatal(err)
		}

		p := fresh(t)
		if err := p.LoadGoldenImage(mutated, meta, 1); err != nil {
			return
		}
		again := filepath.Join(dir, "again.golden")
		if _, err := p.WriteGoldenImage(again, meta, 1); err != nil {
			t.Fatalf("rewriting an accepted image: %v", err)
		}
		q := fresh(t)
		if err := q.LoadGoldenImage(again, meta, 1); err != nil {
			t.Fatalf("the rewrite of an accepted image is refused: %v", err)
		}
		if q.State().Hash() != p.State().Hash() {
			t.Fatal("state hash differs after rewriting and reloading an accepted image")
		}
		if !q.mem.Equal(p.mem) {
			t.Fatal("memory differs after rewriting and reloading an accepted image")
		}
		p.RunCycles(200)
	})
}
