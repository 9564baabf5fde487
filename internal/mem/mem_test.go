package mem

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapAndReadWrite(t *testing.T) {
	m := New()
	m.Map(0x10000, 0x4000, PermRW)

	if err := m.WriteQ(0x10008, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatalf("WriteQ: %v", err)
	}
	got, err := m.ReadQ(0x10008)
	if err != nil {
		t.Fatalf("ReadQ: %v", err)
	}
	if got != 0xDEADBEEFCAFEF00D {
		t.Errorf("ReadQ = %#x", got)
	}

	if err := m.WriteL(0x10010, 0x12345678); err != nil {
		t.Fatalf("WriteL: %v", err)
	}
	l, err := m.ReadL(0x10010)
	if err != nil {
		t.Fatalf("ReadL: %v", err)
	}
	if l != 0x12345678 {
		t.Errorf("ReadL = %#x", l)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	m := New()
	m.Map(0x10000, PageSize, PermRW)

	_, err := m.ReadQ(0xDEAD0000)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultAccess {
		t.Fatalf("expected access fault, got %v", err)
	}
	if f.Write {
		t.Error("read fault should not be marked as write")
	}

	err = m.WriteQ(0xDEAD0000, 1)
	if !errors.As(err, &f) || f.Kind != FaultAccess || !f.Write {
		t.Fatalf("expected write access fault, got %v", err)
	}
}

func TestPermissionFaults(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRead)
	if _, err := m.ReadQ(0x1000); err != nil {
		t.Errorf("read on read-only page: %v", err)
	}
	var f *Fault
	if err := m.WriteQ(0x1000, 1); !errors.As(err, &f) || f.Kind != FaultAccess {
		t.Errorf("write to read-only page should fault, got %v", err)
	}
	if _, err := m.FetchWord(0x1000); !errors.As(err, &f) || f.Kind != FaultAccess {
		t.Errorf("fetch from non-exec page should fault, got %v", err)
	}

	m.Map(0x2000, PageSize, PermRX)
	if _, err := m.FetchWord(0x2000); err != nil {
		t.Errorf("fetch from exec page: %v", err)
	}
}

func TestAlignmentFaults(t *testing.T) {
	m := New()
	m.Map(0, PageSize, PermRW)
	var f *Fault
	if _, err := m.ReadQ(4); !errors.As(err, &f) || f.Kind != FaultAlign {
		t.Errorf("misaligned ReadQ should raise alignment fault, got %v", err)
	}
	if _, err := m.ReadL(2); !errors.As(err, &f) || f.Kind != FaultAlign {
		t.Errorf("misaligned ReadL should raise alignment fault, got %v", err)
	}
	if err := m.WriteQ(12, 0); !errors.As(err, &f) || f.Kind != FaultAlign {
		t.Errorf("misaligned WriteQ should raise alignment fault, got %v", err)
	}
}

func TestFaultErrorStrings(t *testing.T) {
	e1 := (&Fault{Kind: FaultAccess, Addr: 0x10, Write: true}).Error()
	e2 := (&Fault{Kind: FaultAlign, Addr: 0x11}).Error()
	if e1 == "" || e2 == "" || e1 == e2 {
		t.Errorf("fault strings not distinguishing: %q vs %q", e1, e2)
	}
}

func TestCrossPageWriteBytes(t *testing.T) {
	m := New()
	m.Map(0, 2*PageSize, PermRW)
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	if err := m.WriteBytes(PageSize-100, data); err != nil {
		t.Fatalf("WriteBytes: %v", err)
	}
	got, err := m.ReadBytes(PageSize-100, 300)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
}

func TestJournalRestore(t *testing.T) {
	m := New()
	m.Map(0, PageSize, PermRW)
	m.EnableJournal()

	if err := m.WriteQ(0, 1); err != nil {
		t.Fatal(err)
	}
	mark := m.Snapshot()
	if err := m.WriteQ(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteQ(8, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteL(16, 4); err != nil {
		t.Fatal(err)
	}

	m.RestoreTo(mark)
	if v, _ := m.ReadQ(0); v != 1 {
		t.Errorf("after restore [0] = %d, want 1", v)
	}
	if v, _ := m.ReadQ(8); v != 0 {
		t.Errorf("after restore [8] = %d, want 0", v)
	}
	if v, _ := m.ReadL(16); v != 0 {
		t.Errorf("after restore [16] = %d, want 0", v)
	}
	if m.JournalLen() != int(mark) {
		t.Errorf("journal len = %d, want %d", m.JournalLen(), mark)
	}
}

func TestJournalDiscard(t *testing.T) {
	m := New()
	m.Map(0, PageSize, PermRW)
	m.EnableJournal()

	if err := m.WriteQ(0, 1); err != nil {
		t.Fatal(err)
	}
	mark := m.Snapshot()
	if err := m.WriteQ(0, 2); err != nil {
		t.Fatal(err)
	}
	if dropped := m.DiscardTo(mark); dropped != 1 {
		t.Errorf("DiscardTo dropped %d records, want 1", dropped)
	}

	// The pre-mark write (value 1) is now permanent: restoring all the
	// way back undoes only the post-mark write.
	m.RestoreTo(0)
	if v, _ := m.ReadQ(0); v != 1 {
		t.Errorf("after discard+restore [0] = %d, want 1", v)
	}

	// Discarding past the end clears the journal entirely.
	if err := m.WriteQ(0, 5); err != nil {
		t.Fatal(err)
	}
	m.DiscardTo(Mark(99))
	if m.JournalLen() != 0 {
		t.Errorf("journal len = %d after over-discard, want 0", m.JournalLen())
	}
}

func TestJournalRestoreProperty(t *testing.T) {
	// Property: any random write sequence after a snapshot is fully
	// undone by RestoreTo.
	f := func(seed int64, writes uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		m.Map(0, 4*PageSize, PermRW)
		m.EnableJournal()
		// Pre-populate.
		for i := 0; i < 64; i++ {
			if err := m.WriteQ(uint64(rng.Intn(4*PageSize/8))*8, rng.Uint64()); err != nil {
				return false
			}
		}
		before := m.Clone()
		mark := m.Snapshot()
		for i := 0; i < int(writes); i++ {
			addr := uint64(rng.Intn(4*PageSize/8)) * 8
			if rng.Intn(2) == 0 {
				if err := m.WriteQ(addr, rng.Uint64()); err != nil {
					return false
				}
			} else {
				if err := m.WriteL(addr, rng.Uint32()); err != nil {
					return false
				}
			}
		}
		m.RestoreTo(mark)
		return m.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New()
	m.Map(0, PageSize, PermRW)
	if err := m.WriteQ(0, 42); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if err := m.WriteQ(0, 43); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.ReadQ(0); v != 42 {
		t.Errorf("clone affected by original write: %d", v)
	}
	if m.Equal(c) {
		t.Error("images should differ after divergent write")
	}
}

func TestFirstDifference(t *testing.T) {
	m := New()
	m.Map(0, PageSize, PermRW)
	c := m.Clone()
	if _, diff := m.FirstDifference(c); diff {
		t.Fatal("identical images reported different")
	}
	if err := m.WriteQ(128, 7); err != nil {
		t.Fatal(err)
	}
	addr, diff := m.FirstDifference(c)
	if !diff || addr != 128 {
		t.Errorf("FirstDifference = %#x,%v want 0x80,true", addr, diff)
	}
	// Page mapped in one image only.
	c2 := m.Clone()
	c2.Map(1<<20, PageSize, PermRW)
	if _, diff := m.FirstDifference(c2); !diff {
		t.Error("extra mapping should count as difference")
	}
}

func TestHashStability(t *testing.T) {
	build := func() *Memory {
		m := New()
		m.Map(0x30000, PageSize, PermRW)
		m.Map(0x10000, PageSize, PermRX)
		_ = m.WriteBytes(0x30000, []byte{1, 2, 3})
		return m
	}
	a, b := build(), build()
	if a.Hash() != b.Hash() {
		t.Error("hash not deterministic across identical images")
	}
	if err := a.WriteQ(0x30008, 9); err != nil {
		t.Fatal(err)
	}
	if a.Hash() == b.Hash() {
		t.Error("hash did not change after write")
	}
}

func TestMappedAndFootprint(t *testing.T) {
	m := New()
	m.Map(0, 3*PageSize, PermRW)
	if !m.Mapped(2*PageSize, PermRead) {
		t.Error("expected page mapped")
	}
	if m.Mapped(3*PageSize, PermRead) {
		t.Error("expected page unmapped")
	}
	if m.Mapped(0, PermExec) {
		t.Error("RW page should not allow exec")
	}
	if m.Pages() != 3 || m.Footprint() != 3*PageSize {
		t.Errorf("pages=%d footprint=%d", m.Pages(), m.Footprint())
	}
	m.Map(0, 1, 0) // zero-length no-op
	m.Map(0, 0, PermRW)
}

func TestCopyFromMatchesClone(t *testing.T) {
	src := New()
	src.Map(0x10000, 3*PageSize, PermRW)
	src.Map(0x40000, PageSize, PermRead)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		addr := 0x10000 + uint64(rng.Intn(3*PageSize/8))*8
		if err := src.WriteQ(addr, rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}

	// The destination starts with a different layout, dirtied contents,
	// an extra page, and a live journal — all of which CopyFrom must
	// discard or overwrite.
	dst := New()
	dst.Map(0x10000, PageSize, PermRW)
	dst.Map(0x90000, PageSize, PermRW) // not mapped in src
	dst.EnableJournal()
	if err := dst.WriteQ(0x10000, 0xDEAD); err != nil {
		t.Fatal(err)
	}

	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatal("CopyFrom image differs from source")
	}
	if dst.Pages() != src.Pages() {
		t.Fatalf("pages = %d, want %d (stale page not dropped)", dst.Pages(), src.Pages())
	}
	if _, err := dst.ReadQ(0x90000); err == nil {
		t.Error("page absent in source survived CopyFrom")
	}
	if err := dst.WriteQ(0x40000, 1); err == nil {
		t.Error("read-only permission not copied")
	}
	// Journal state is excluded, matching Clone.
	if dst.JournalLen() != 0 {
		t.Errorf("journal survived CopyFrom: %d records", dst.JournalLen())
	}
	if err := dst.WriteQ(0x10008, 7); err != nil {
		t.Fatal(err)
	}
	if dst.JournalLen() != 0 {
		t.Error("journalling still enabled after CopyFrom")
	}

	// Writes after the copy must not leak back into the source.
	if v, err := src.ReadQ(0x10008); err != nil || v == 7 {
		t.Errorf("source mutated through CopyFrom alias: v=%d err=%v", v, err)
	}
}

func TestRestoreToNegativeMarkClamps(t *testing.T) {
	// Regression: a Mark that went negative (e.g. rebased past zero by a
	// buggy caller) used to panic in the journal truncation. It must behave
	// like RestoreTo(0): undo everything.
	m := New()
	m.Map(0, PageSize, PermRW)
	m.EnableJournal()
	if err := m.WriteQ(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteQ(8, 2); err != nil {
		t.Fatal(err)
	}
	m.RestoreTo(Mark(-5))
	if v, _ := m.ReadQ(0); v != 0 {
		t.Errorf("[0] = %d after negative restore, want 0", v)
	}
	if v, _ := m.ReadQ(8); v != 0 {
		t.Errorf("[8] = %d after negative restore, want 0", v)
	}
	if m.JournalLen() != 0 {
		t.Errorf("journal len = %d, want 0", m.JournalLen())
	}
}

func TestRestoreToOverlongMarkIsNoop(t *testing.T) {
	// A mark beyond the journal end undoes nothing and must not panic.
	m := New()
	m.Map(0, PageSize, PermRW)
	m.EnableJournal()
	if err := m.WriteQ(0, 7); err != nil {
		t.Fatal(err)
	}
	m.RestoreTo(Mark(99))
	if v, _ := m.ReadQ(0); v != 7 {
		t.Errorf("[0] = %d, want 7 (overlong mark must not unwind)", v)
	}
}

func TestDiscardToNegativeMarkClamps(t *testing.T) {
	// Regression: DiscardTo(Mark(-1)) used to panic; it must behave like
	// DiscardTo(0) — nothing before the mark, so nothing becomes permanent
	// and the journal is untouched.
	m := New()
	m.Map(0, PageSize, PermRW)
	m.EnableJournal()
	if err := m.WriteQ(0, 3); err != nil {
		t.Fatal(err)
	}
	if dropped := m.DiscardTo(Mark(-1)); dropped != 0 {
		t.Errorf("dropped = %d, want 0", dropped)
	}
	if m.JournalLen() != 1 {
		t.Errorf("journal len = %d, want 1", m.JournalLen())
	}
	m.RestoreTo(0)
	if v, _ := m.ReadQ(0); v != 0 {
		t.Errorf("[0] = %d, want 0 (write must still be undoable)", v)
	}
}

func TestDisableJournal(t *testing.T) {
	m := New()
	m.Map(0, PageSize, PermRW)
	m.EnableJournal()
	if err := m.WriteQ(0, 1); err != nil {
		t.Fatal(err)
	}
	m.DisableJournal()
	if m.JournalLen() != 0 {
		t.Errorf("journal len = %d after disable, want 0", m.JournalLen())
	}
	// Current state is permanent, not rolled back.
	if v, _ := m.ReadQ(0); v != 1 {
		t.Errorf("[0] = %d, want 1", v)
	}
	// Further writes are not recorded.
	if err := m.WriteQ(0, 2); err != nil {
		t.Fatal(err)
	}
	if m.JournalLen() != 0 {
		t.Errorf("journal still recording after disable: %d", m.JournalLen())
	}
	// Re-enabling resumes recording from the current state.
	m.EnableJournal()
	if err := m.WriteQ(0, 9); err != nil {
		t.Fatal(err)
	}
	m.RestoreTo(0)
	if v, _ := m.ReadQ(0); v != 2 {
		t.Errorf("[0] = %d, want 2 (restore floor is the re-enable point)", v)
	}
}

// The page memo must never outlive the page it names: these tests pin the
// code paths that delete, replace or re-permission a memoized page.

func isAccessFault(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Kind == FaultAccess
}

func TestMemoCopyFromDropsMissingPage(t *testing.T) {
	const a, b = 0x10000, 0x20000
	m := New()
	m.Map(a, PageSize, PermRWX)
	m.Map(b, PageSize, PermRW)
	if _, err := m.ReadQ(a); err != nil { // memoize a for data
		t.Fatal(err)
	}
	if _, err := m.FetchWord(a); err != nil { // and for fetch
		t.Fatal(err)
	}
	src := New()
	src.Map(b, PageSize, PermRW)
	m.CopyFrom(src)
	if _, err := m.ReadQ(a); !isAccessFault(err) {
		t.Errorf("data read of a page CopyFrom dropped: err = %v, want access fault", err)
	}
	if _, err := m.FetchWord(a); !isAccessFault(err) {
		t.Errorf("fetch of a page CopyFrom dropped: err = %v, want access fault", err)
	}
	if err := m.WriteQ(a, 1); !isAccessFault(err) {
		t.Errorf("write to a page CopyFrom dropped: err = %v, want access fault", err)
	}
}

func TestMemoLoadStateReadsLoadedContents(t *testing.T) {
	const a = 0x10000
	saved := New()
	saved.Map(a, PageSize, PermRW)
	if err := saved.WriteQ(a, 0x1111); err != nil {
		t.Fatal(err)
	}
	blob := saved.SaveState()

	m := New()
	m.Map(a, PageSize, PermRW)
	if err := m.WriteQ(a, 0x2222); err != nil { // memoize m's own page
		t.Fatal(err)
	}
	if err := m.LoadState(blob); err != nil {
		t.Fatal(err)
	}
	if got, err := m.ReadQ(a); err != nil || got != 0x1111 {
		t.Errorf("ReadQ after LoadState = %#x, %v; want 0x1111", got, err)
	}
	if err := m.WriteQ(a, 0x3333); err != nil {
		t.Fatal(err)
	}
	if got, _ := saved.ReadQ(a); got != 0x1111 {
		t.Errorf("write after LoadState reached another image: %#x", got)
	}
	if got, _ := m.ReadQ(a); got != 0x3333 {
		t.Errorf("ReadQ = %#x, want 0x3333", got)
	}
}

// TestLoadStateRefusesWrappingPageCount: a page count whose product with the
// record size wraps to the blob's length is refused. Before the check
// divided, a 9-byte blob claiming 1/(9+PageSize) mod 2^64 pages passed it and
// LoadState read past the blob's end.
func TestLoadStateRefusesWrappingPageCount(t *testing.T) {
	// The inverse of the odd record size mod 2^64, by Newton's iteration.
	rec := uint64(9 + PageSize)
	inv := rec
	for i := 0; i < 5; i++ {
		inv *= 2 - rec*inv
	}
	if rec*inv != 1 {
		t.Fatalf("no inverse: %d", inv)
	}
	blob := append(binary.LittleEndian.AppendUint64(nil, inv), 0)
	if err := New().LoadState(blob); err == nil {
		t.Fatal("LoadState accepted a 9-byte blob claiming a wrapped page count")
	}
}

func TestMemoMapLoweredPermFaults(t *testing.T) {
	const a = 0x10000
	m := New()
	m.Map(a, PageSize, PermRW)
	if err := m.WriteQ(a, 1); err != nil { // memoize a
		t.Fatal(err)
	}
	m.Map(a, PageSize, PermRead)
	if err := m.WriteQ(a, 2); !isAccessFault(err) {
		t.Errorf("write after Map dropped PermWrite: err = %v, want access fault", err)
	}
	if got, err := m.ReadQ(a); err != nil || got != 1 {
		t.Errorf("ReadQ = %#x, %v; want the pre-remap contents 1", got, err)
	}
}

func TestMemoFetchAndDataDoNotAlias(t *testing.T) {
	const code, data = 0x10000, 0x20000
	m := New()
	m.Map(code, PageSize, PermRX)
	m.Map(data, PageSize, PermRW)
	if err := m.WriteBytes(code, []byte{0xEF, 0xBE, 0xAD, 0xDE}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // second pass runs on warm memos
		if w, err := m.FetchWord(code); err != nil || w != 0xDEADBEEF {
			t.Fatalf("pass %d: FetchWord(code) = %#x, %v", i, w, err)
		}
		if err := m.WriteQ(data, uint64(i)); err != nil {
			t.Fatalf("pass %d: WriteQ(data): %v", i, err)
		}
		// The data memo holds the RW page and the fetch memo the RX one;
		// neither may answer for the other.
		if _, err := m.FetchWord(data); !isAccessFault(err) {
			t.Errorf("pass %d: fetch from RW page: err = %v, want access fault", i, err)
		}
		if err := m.WriteQ(code, 1); !isAccessFault(err) {
			t.Errorf("pass %d: write to RX page: err = %v, want access fault", i, err)
		}
		if got, err := m.ReadL(code); err != nil || got != 0xDEADBEEF {
			t.Errorf("pass %d: ReadL(code) = %#x, %v", i, got, err)
		}
	}
}
