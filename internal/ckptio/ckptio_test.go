package ckptio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// buildImage assembles a representative mixed image: an empty frame, a raw
// frame with a zero-length buffer, a compressible flate frame, and a
// high-entropy flate frame (compression that does not pay still round-trips).
func buildImage(t testing.TB) *Writer {
	t.Helper()
	w := NewWriter()
	w.Frame(StyleRaw) // zero-buffer frame
	f1 := w.Frame(StyleRaw)
	f1.Add([]byte("control words"))
	f1.Add(nil) // zero-length buffer
	f1.Add([]byte{0xff})
	f2 := w.Frame(StyleFlate)
	f2.Add(bytes.Repeat([]byte{0xAB, 0, 0, 0}, 4096))
	f2.Add(make([]byte, 8192))
	f3 := w.Frame(StyleFlate)
	rng := rand.New(rand.NewSource(7))
	noise := make([]byte, 3000)
	for i := range noise {
		noise[i] = byte(rng.Intn(256))
	}
	f3.Add(noise)
	return w
}

// wantBuffers is what decoding buildImage's output must always yield.
func wantBuffers(t *testing.T, w *Writer) [][][]byte {
	t.Helper()
	out := make([][][]byte, len(w.frames))
	for i, f := range w.frames {
		bufs := make([][]byte, len(f.bufs))
		for j, b := range f.bufs {
			bufs[j] = append([]byte{}, b...)
		}
		out[i] = bufs
	}
	return out
}

// sameBuffers compares decoded buffers against the originals, treating nil
// and empty as equal (a zero-length buffer has no bytes to preserve).
func sameBuffers(a, b [][][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !bytes.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestEncodeIdenticalAcrossWorkersAndModes is the write half of the
// bit-identity contract: the same frames encode to the same bytes for every
// worker count, and WriteFile produces exactly Encode's bytes.
func TestEncodeIdenticalAcrossWorkersAndModes(t *testing.T) {
	base, err := buildImage(t).Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		enc, err := buildImage(t).Encode(workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, enc) {
			t.Fatalf("Encode(%d) differs from Encode(1)", workers)
		}
	}
	for _, workers := range []int{1, 8} {
		path := filepath.Join(t.TempDir(), "img.ckpt")
		if err := buildImage(t).WriteFile(path, workers); err != nil {
			t.Fatal(err)
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, disk) {
			t.Fatalf("WriteFile(workers=%d) bytes differ from Encode(1)", workers)
		}
	}
}

// TestDecodeIdenticalAcrossWorkersAndModes is the read half: decoding at
// several worker counts restores the exact buffers that were written, and
// Open of the written file decodes them too.
func TestDecodeIdenticalAcrossWorkersAndModes(t *testing.T) {
	w := buildImage(t)
	want := wantBuffers(t, w)
	data, err := w.Encode(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		c, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadAll(workers)
		if err != nil {
			t.Fatalf("ReadAll(%d): %v", workers, err)
		}
		if !sameBuffers(want, got) {
			t.Fatalf("decode (workers=%d) differs from written buffers", workers)
		}
	}
	path := filepath.Join(t.TempDir(), "img.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fil, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fil.Close()
	got, err := fil.ReadAll(2)
	if err != nil {
		t.Fatalf("Open ReadAll: %v", err)
	}
	if !sameBuffers(want, got) {
		t.Fatal("Open decode differs from written buffers")
	}
}

func TestStatsReportCompression(t *testing.T) {
	w := buildImage(t)
	if _, err := w.Encode(2); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Frames != 4 {
		t.Fatalf("Frames = %d, want 4", st.Frames)
	}
	if st.Buffers != 6 {
		t.Fatalf("Buffers = %d, want 6", st.Buffers)
	}
	if st.PlainBytes <= 0 || st.StoredBytes <= 0 {
		t.Fatalf("byte totals not populated: %+v", st)
	}
	// The image is dominated by the highly compressible frame, so overall
	// stored < plain.
	if st.StoredBytes >= st.PlainBytes {
		t.Fatalf("expected net compression, got stored=%d plain=%d", st.StoredBytes, st.PlainBytes)
	}
}

func TestEmptyImageRoundTrips(t *testing.T) {
	data, err := NewWriter().Encode(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Frames() != 0 {
		t.Fatalf("Frames() = %d, want 0", c.Frames())
	}
	if _, err := c.ReadAll(4); err != nil {
		t.Fatal(err)
	}
}

// decodeAllBytes fully decodes data, returning the first error.
func decodeAllBytes(t *testing.T, data []byte) error {
	t.Helper()
	c, err := Decode(data)
	if err == nil {
		_, err = c.ReadAll(1)
	}
	return err
}

// faultSite is one byte TestFaultInjection flips in buildImage's encoding and
// the error the flip must yield.
type faultSite struct {
	name string
	off  int
	want error
}

// faultSites names a byte in every structural region of data, buildImage's
// encoding: magic, frame-directory entry, header CRC, compressed frame body,
// raw buffer body, buffer CRC.
func faultSites(data []byte) []faultSite {
	hlen := int(binary.LittleEndian.Uint32(data[8:12]))
	frameStart := headerFixed + hlen + 4
	// Offsets of interesting regions. Frame 1 (raw) starts after frame 0
	// (zero stored bytes); its first buffer body begins 4 bytes in and its
	// CRC follows the 13-byte "control words" payload.
	rawBody := frameStart + 4 + 2                                          // inside "control words"
	rawCRC := frameStart + 4 + 13                                          // first buffer's CRC word
	flateBody := frameStart + (4 + 13 + 4) + (4 + 0 + 4) + (4 + 1 + 4) + 3 // inside frame 2's flate stream
	return []faultSite{
		{"magic", 3, ErrBadMagic},
		{"frame directory entry", 12 + 4 + frameDirSize + 2, ErrCorrupt}, // frame 1's storedLen
		{"header CRC field", headerFixed + hlen + 1, ErrCorrupt},
		{"raw buffer body", rawBody, ErrCorrupt},
		{"buffer CRC field", rawCRC, ErrCorrupt},
		{"compressed frame body", flateBody, ErrCorrupt},
	}
}

// flipped returns a copy of data with the byte at off flipped.
func flipped(data []byte, off int) []byte {
	mut := bytes.Clone(data)
	mut[off] ^= 0x40
	return mut
}

// TestFaultInjection flips single bytes in every structural region of the
// file and asserts each yields a typed error, never a silently wrong restore.
// (Satellite: ckptio fault-injection coverage, mirroring the journal
// torn-tail tests.)
func TestFaultInjection(t *testing.T) {
	w := buildImage(t)
	data, err := w.Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeAllBytes(t, append([]byte{}, data...)); err != nil {
		t.Fatalf("pristine image must decode: %v", err)
	}
	for _, tc := range faultSites(data) {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeAllBytes(t, flipped(data, tc.off))
			if err == nil {
				t.Fatalf("flipping byte %d (%s) decoded cleanly", tc.off, tc.name)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("flipping byte %d (%s): got %v, want %v", tc.off, tc.name, err, tc.want)
			}
		})
	}
}

// truncationCuts are the lengths TestTruncationDetected cuts data to.
func truncationCuts(data []byte) []int {
	return []int{0, 4, headerFixed, headerFixed + 5, len(data) - 1}
}

// TestTruncationDetected cuts the file at several points; every cut is a
// typed error.
func TestTruncationDetected(t *testing.T) {
	data, err := buildImage(t).Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range truncationCuts(data) {
		err := decodeAllBytes(t, append([]byte{}, data[:n]...))
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
		}
	}
	// Trailing garbage is corruption, not silently ignored bytes.
	if err := decodeAllBytes(t, append(append([]byte{}, data...), 0xEE)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

// oversizedImages are two one-frame images with valid CRCs whose frame
// directory declares more than the frame's bytes can hold: a 45-byte image
// whose raw frame claims 2³¹ buffers in 8 payload bytes, and a 55-byte image
// whose flate frame claims 2³¹ plain bytes.
func oversizedImages(t testing.TB) map[string][]byte {
	t.Helper()
	one := func(ef encodedFrame) []byte {
		ef.crc = crc32.ChecksumIEEE(ef.stored)
		return append(layout([]encodedFrame{ef}), ef.stored...)
	}
	fw := &FrameWriter{style: StyleFlate}
	fw.Add(nil)
	flated, err := encodeFrame(fw)
	if err != nil {
		t.Fatal(err)
	}
	flated.plainLen = 1 << 31
	return map[string][]byte{
		"raw frame with 2^31 buffers": one(encodedFrame{style: StyleRaw, stored: make([]byte, 8), plainLen: 8, bufCount: 1 << 31}),
		"flate frame of 2^31 bytes":   one(flated),
	}
}

// TestOversizedFrameRejected pins the bounds parseHeader puts on a frame
// directory. Without them, ReadFrame sized its buffer list from bufCount (2³¹
// entries: the process died out of memory, not with an error) and its inflate
// buffer from plainLen (2 GiB before returning ErrCorrupt).
func TestOversizedFrameRejected(t *testing.T) {
	for name, data := range oversizedImages(t) {
		t.Run(name, func(t *testing.T) {
			if err := decodeAllBytes(t, data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%d-byte image: got %v, want ErrCorrupt", len(data), err)
			}
		})
	}
}

// TestUnknownStyleRejected ensures a future style byte fails loudly today.
func TestUnknownStyleRejected(t *testing.T) {
	w := NewWriter()
	w.Frame(Style(9)).Add([]byte("x"))
	if _, err := w.Encode(1); err == nil {
		t.Fatal("encoding an unknown style must fail")
	}
}

func TestReadFrameIndependence(t *testing.T) {
	w := buildImage(t)
	want := wantBuffers(t, w)
	data, err := w.Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Read frames out of order; each must stand alone.
	for _, i := range []int{3, 1, 0, 2, 1} {
		got, err := c.ReadFrame(i)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		if !sameBuffers([][][]byte{want[i]}, [][][]byte{got}) {
			t.Fatalf("ReadFrame(%d) mismatch", i)
		}
	}
	if _, err := c.ReadFrame(4); err == nil {
		t.Fatal("out-of-range frame index must error")
	}
}
