package pipeline

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// mustPanic runs fn and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want message containing %q", r, want)
		}
	}()
	fn()
}

// TestNthBitElementSeams walks every element boundary: the first and last
// bit of each element must map back to that element, and the flat index one
// past the final bit must report out of range. This pins the prefix-sum
// bookkeeping the packed layout rebuilt.
func TestNthBitElementSeams(t *testing.T) {
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	s := p.State()
	total := s.TotalBits(false)
	elems := s.Elements()

	var cum uint64
	for i := range elems {
		first, ok := s.NthBit(cum)
		if !ok || first.Elem != i || first.Bit != 0 {
			t.Fatalf("NthBit(%d) = %+v ok=%v, want first bit of element %d", cum, first, ok, i)
		}
		lastIdx := cum + uint64(elems[i].Bits) - 1
		last, ok := s.NthBit(lastIdx)
		if !ok || last.Elem != i || last.Bit != elems[i].Bits-1 {
			t.Fatalf("NthBit(%d) = %+v ok=%v, want last bit of element %d (%d bits)",
				lastIdx, last, ok, i, elems[i].Bits)
		}
		cum += uint64(elems[i].Bits)
	}
	if cum != total {
		t.Fatalf("element widths sum to %d, TotalBits = %d", cum, total)
	}
	if _, ok := s.NthBit(total); ok {
		t.Fatal("NthBit(TotalBits) should report out of range")
	}
	if _, ok := s.NthBit(^uint64(0)); ok {
		t.Fatal("NthBit(MaxUint64) should report out of range")
	}
}

// TestFlipPeekRejectOutOfRangeRefs is the regression test for the silent
// `Bit % 64` wrap: a BitRef past an element's declared width (or past the
// element list) used to flip a bit Hash never saw, desyncing golden and
// faulty runs with no trace. Both Flip and Peek must now fail loudly.
func TestFlipPeekRejectOutOfRangeRefs(t *testing.T) {
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	s := p.State()
	elems := s.Elements()

	// An element narrower than 64 bits so that Bit == Bits is representable
	// but invalid.
	narrow := -1
	for i := range elems {
		if elems[i].Bits < 64 {
			narrow = i
			break
		}
	}
	if narrow < 0 {
		t.Fatal("no narrow element found")
	}

	mustPanic(t, "out of range", func() { s.Flip(BitRef{Elem: narrow, Bit: elems[narrow].Bits}) })
	mustPanic(t, "out of range", func() { s.Peek(BitRef{Elem: narrow, Bit: elems[narrow].Bits}) })
	mustPanic(t, "out of range", func() { s.Flip(BitRef{Elem: len(elems), Bit: 0}) })
	mustPanic(t, "out of range", func() { s.Peek(BitRef{Elem: -1, Bit: 0}) })

	// In-range refs still work, and the out-of-range attempts above must
	// not have touched any state.
	h := s.Hash()
	s.Flip(BitRef{Elem: narrow, Bit: 0})
	s.Flip(BitRef{Elem: narrow, Bit: 0})
	if s.Hash() != h {
		t.Fatal("in-range double flip did not restore state")
	}
}

// TestRegistrationAfterSealPanics pins the stale-Elements bugfix: once the
// space has been indexed (any Hash/Flip/NthBit call), handed-out Elements()
// slices and BitRefs would silently go stale if registration continued, so
// all three registration paths must refuse.
func TestRegistrationAfterSealPanics(t *testing.T) {
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	s := p.State()
	s.Hash() // forces reindex -> seal

	var w uint64
	var arr []uint64
	mustPanic(t, "sealed", func() { s.Register("late", KindLatch, ClassControl, &w, 8) })
	mustPanic(t, "sealed", func() { s.BindArray(&arr, 4) })
	mustPanic(t, "sealed", func() { s.RegisterPacked("late", KindLatch, ClassControl, 0, 8) })
}

// TestRegistrationValidation pins the argument checks on a fresh space.
func TestRegistrationValidation(t *testing.T) {
	var s StateSpace
	var w uint64
	var arr []uint64
	mustPanic(t, "width out of range", func() { s.Register("w", KindLatch, ClassControl, &w, 0) })
	mustPanic(t, "width out of range", func() { s.Register("w", KindLatch, ClassControl, &w, 65) })
	mustPanic(t, "length out of range", func() { s.BindArray(&arr, 0) })
	off := s.BindArray(&arr, 2)
	mustPanic(t, "outside packed backing", func() { s.RegisterPacked("p", KindLatch, ClassControl, off+2, 8) })
	mustPanic(t, "outside packed backing", func() { s.RegisterPacked("p", KindLatch, ClassControl, -1, 8) })
}

// TestBindArrayRepointsEarlierSlices: the packed backing reallocates as it
// grows during registration, so slices bound early must still alias the
// final backing when the space seals.
func TestBindArrayRepointsEarlierSlices(t *testing.T) {
	var s StateSpace
	var a, b []uint64
	offA := s.BindArray(&a, 3)
	for i := 0; i < 3; i++ {
		s.RegisterPacked("a", KindLatch, ClassControl, offA+i, 64)
	}
	// Grow the backing enough to force reallocation.
	offB := s.BindArray(&b, 1024)
	for i := 0; i < 1024; i++ {
		s.RegisterPacked("b", KindSRAM, ClassData, offB+i, 64)
	}

	a[1] = 0xdead
	h1 := s.Hash()
	s.Flip(BitRef{Elem: 1, Bit: 0}) // element 1 is a[1]
	if a[1] != 0xdead^1 {
		t.Fatalf("Flip through the space did not reach the bound slice: a[1] = %#x", a[1])
	}
	if s.Hash() == h1 {
		t.Fatal("hash missed a write to an early-bound slice")
	}
}

// TestSnapshotRestoreSizeMismatch: Restore must refuse a snapshot from a
// differently shaped space rather than partially writing state.
func TestSnapshotRestoreSizeMismatch(t *testing.T) {
	p := newBenchPipeline(t, workload.Gzip, DefaultConfig())
	s := p.State()
	snap := s.Snapshot()
	mustPanic(t, "snapshot size mismatch", func() { s.Restore(snap[:len(snap)-1]) })
}
