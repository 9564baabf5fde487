package ckptio

import (
	"errors"
	"testing"
)

// FuzzReadImage feeds arbitrary bytes to Decode and ReadAll. The decoder must
// not panic or size anything beyond what the input can hold, and every
// failure must be one of its typed errors. An image it accepts must decode to
// the same buffers at any worker count, and re-encoding those buffers in the
// same frame styles must decode to them again.
func FuzzReadImage(f *testing.F) {
	// Seeds: the pristine mixed image with the fault-injection and
	// truncation tests' mutations of it, an empty image, and the two
	// oversized frame directories.
	data, err := buildImage(f).Encode(1)
	if err != nil {
		f.Fatal(err)
	}
	empty, err := NewWriter().Encode(1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(empty)
	f.Add(append(append([]byte{}, data...), 0xEE))
	for _, site := range faultSites(data) {
		f.Add(flipped(data, site.off))
	}
	for _, n := range truncationCuts(data) {
		f.Add(append([]byte{}, data[:n]...))
	}
	for _, img := range oversizedImages(f) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		var one [][][]byte
		if err == nil {
			one, err = c.ReadAll(1)
		}
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		four, err := c.ReadAll(4)
		if err != nil {
			t.Fatalf("ReadAll(4) refused what ReadAll(1) accepted: %v", err)
		}
		if !sameBuffers(one, four) {
			t.Fatal("ReadAll(4) buffers differ from ReadAll(1)")
		}
		w := NewWriter()
		for i, bufs := range one {
			fw := w.Frame(c.FrameStyle(i))
			for _, b := range bufs {
				fw.Add(b)
			}
		}
		enc, err := w.Encode(1)
		if err != nil {
			t.Fatalf("re-encoding accepted buffers: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded image refused: %v", err)
		}
		again, err := back.ReadAll(1)
		if err != nil {
			t.Fatalf("re-encoded image refused: %v", err)
		}
		if !sameBuffers(one, again) {
			t.Fatal("re-encoded image decodes to different buffers")
		}
	})
}
