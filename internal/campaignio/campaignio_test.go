package campaignio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func testManifest(slots, shardIdx, shardCount int) Manifest {
	return Manifest{
		Version:    FormatVersion,
		Kind:       "uarch",
		ConfigHash: "00000000deadbeef",
		Seed:       42,
		Bench:      "gzip",
		Slots:      slots,
		ShardIndex: shardIdx,
		ShardCount: shardCount,
	}
}

func payload(slot int) []byte { return []byte(fmt.Sprintf(`{"slot":%d}`, slot)) }

// writeJournal creates a campaign dir with records for the given slots.
func writeJournal(t testing.TB, dir string, m Manifest, slots []int, batch int) {
	t.Helper()
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(dir, 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slots {
		if err := w.Append(s, payload(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(100, 1, 2)
	m.Aux = []byte(`{"total_bits":123}`)
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.ConfigHash != m.ConfigHash || got.Slots != m.Slots ||
		got.ShardIndex != 1 || got.ShardCount != 2 {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	// Aux survives modulo whitespace (the writer re-indents it).
	if err := got.SamePlan(m); err != nil {
		t.Fatalf("round-tripped manifest incompatible with original: %v", err)
	}
	// Rewriting is atomic and idempotent.
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files after atomic write: %v", entries)
	}
}

func TestManifestCompatibility(t *testing.T) {
	base := testManifest(100, 0, 2)
	if err := base.SamePlan(testManifest(100, 1, 2)); err != nil {
		t.Fatalf("sibling shards should share a plan: %v", err)
	}
	if err := base.Resumable(testManifest(100, 1, 2)); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("different shard index should not be resumable, got %v", err)
	}
	diff := testManifest(100, 0, 2)
	diff.Seed = 43
	if err := base.SamePlan(diff); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("seed mismatch undetected: %v", err)
	}
	diff = testManifest(101, 0, 2)
	if err := base.SamePlan(diff); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("slot-count mismatch undetected: %v", err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	writeJournal(t, dir, m, []int{0, 1, 2, 3, 4}, 2)
	scan, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn {
		t.Fatal("clean journal reported torn")
	}
	if len(scan.Records) != 5 {
		t.Fatalf("records = %d, want 5", len(scan.Records))
	}
	for i, rec := range scan.Records {
		if rec.Slot != i || !bytes.Equal(rec.Payload, payload(i)) {
			t.Fatalf("record %d = %d %q", i, rec.Slot, rec.Payload)
		}
	}

	// Append more after a rescan, as a resume does.
	w, err := OpenWriter(dir, scan.ValidLen, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, payload(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err = ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 6 || scan.Records[5].Slot != 5 {
		t.Fatalf("after append: %d records", len(scan.Records))
	}
}

func TestJournalMissingIsEmpty(t *testing.T) {
	scan, err := ScanJournal(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn || len(scan.Records) != 0 || scan.ValidLen != 0 {
		t.Fatalf("missing journal: %+v", scan)
	}
}

func TestJournalTornTailDetectedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	writeJournal(t, dir, m, []int{0, 1, 2}, 1)
	path := filepath.Join(dir, JournalName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop 3 bytes off the final record: a crash mid-append.
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Torn {
		t.Fatal("torn tail not detected")
	}
	if len(scan.Records) != 2 {
		t.Fatalf("torn scan recovered %d records, want 2", len(scan.Records))
	}

	// A writer opened at the valid length truncates the tail; the next
	// scan is clean and the re-appended record is intact.
	w, err := OpenWriter(dir, scan.ValidLen, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, payload(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err = ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn || len(scan.Records) != 3 {
		t.Fatalf("after repair: torn=%t records=%d", scan.Torn, len(scan.Records))
	}
}

func TestJournalChecksumCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	writeJournal(t, dir, m, []int{0, 1, 2}, 1)
	path := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle record.
	data[len(magic)+8+len(payload(0))+4+8+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanJournal(dir, m.Slots); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted record: err = %v, want ErrCorrupt", err)
	}
}

// A foreign header is corruption on scan, merge and reopen alike. The
// retired compressed framing's header, RSTJRNL2, is one.
func TestJournalBadMagicAndSlotBounds(t *testing.T) {
	for _, hdr := range []string{"NOTAJRNL", "RSTJRNL2"} {
		dir := t.TempDir()
		writeJournal(t, dir, testManifest(10, 0, 1), []int{0, 1}, 1)
		path := filepath.Join(dir, JournalName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, hdr)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ScanJournal(dir, 10); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s header: scan err = %v", hdr, err)
		}
		if _, _, err := MergeScan([]string{dir}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s header: merge err = %v", hdr, err)
		}
		if _, err := OpenWriter(dir, int64(len(data)), 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s header: reopen err = %v", hdr, err)
		}
	}

	dir2 := t.TempDir()
	writeJournal(t, dir2, testManifest(10, 0, 1), []int{9}, 1)
	if _, err := ScanJournal(dir2, 5); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-plan slot: err = %v", err)
	}
}

func TestMergeScanTwoWay(t *testing.T) {
	d0, d1 := t.TempDir(), t.TempDir()
	writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
	writeJournal(t, d1, testManifest(6, 1, 2), []int{1, 3, 5}, 1)
	merged, payloads, err := MergeScan([]string{d1, d0}) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	if merged.ShardCount != 1 || merged.ShardIndex != 0 {
		t.Fatalf("merged manifest not unsharded: %+v", merged)
	}
	if len(payloads) != 6 {
		t.Fatalf("payloads = %d, want 6", len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(p, payload(i)) {
			t.Fatalf("slot %d payload %q", i, p)
		}
	}
}

func TestMergeScanTruncatedPrefixOK(t *testing.T) {
	// A deterministically truncated campaign journals a shorter prefix in
	// every shard; merge accepts the prefix.
	d0, d1 := t.TempDir(), t.TempDir()
	writeJournal(t, d0, testManifest(10, 0, 2), []int{0, 2}, 1)
	writeJournal(t, d1, testManifest(10, 1, 2), []int{1, 3}, 1)
	_, payloads, err := MergeScan([]string{d0, d1})
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 4 {
		t.Fatalf("prefix = %d, want 4", len(payloads))
	}
}

func TestMergeScanErrors(t *testing.T) {
	t.Run("missing slot", func(t *testing.T) {
		d0, d1 := t.TempDir(), t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 4}, 1) // 2 missing
		writeJournal(t, d1, testManifest(6, 1, 2), []int{1, 3, 5}, 1)
		if _, _, err := MergeScan([]string{d0, d1}); err == nil {
			t.Fatal("hole in slot coverage not detected")
		}
	})
	t.Run("overlapping shard", func(t *testing.T) {
		d0, d1 := t.TempDir(), t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
		writeJournal(t, d1, testManifest(6, 0, 2), []int{0, 2, 4}, 1) // same index twice
		if _, _, err := MergeScan([]string{d0, d1}); !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("duplicate shard index: err = %v", err)
		}
	})
	t.Run("stray slot", func(t *testing.T) {
		d0, d1 := t.TempDir(), t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 3}, 1) // 3 belongs to shard 1
		writeJournal(t, d1, testManifest(6, 1, 2), []int{1, 5}, 1)
		if _, _, err := MergeScan([]string{d0, d1}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stray slot: err = %v", err)
		}
	})
	t.Run("plan mismatch", func(t *testing.T) {
		d0, d1 := t.TempDir(), t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
		other := testManifest(6, 1, 2)
		other.Seed = 7
		writeJournal(t, d1, other, []int{1, 3, 5}, 1)
		if _, _, err := MergeScan([]string{d0, d1}); !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("plan mismatch: err = %v", err)
		}
	})
	t.Run("torn shard refused", func(t *testing.T) {
		d0, d1 := t.TempDir(), t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
		writeJournal(t, d1, testManifest(6, 1, 2), []int{1, 3, 5}, 1)
		path := filepath.Join(d1, JournalName)
		info, _ := os.Stat(path)
		if err := os.Truncate(path, info.Size()-2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MergeScan([]string{d0, d1}); !errors.Is(err, ErrTornTail) {
			t.Fatalf("torn shard: err = %v", err)
		}
	})
	t.Run("wrong shard count", func(t *testing.T) {
		d0 := t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
		if _, _, err := MergeScan([]string{d0}); !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("one dir of a 2-way campaign: err = %v", err)
		}
	})
}

func TestWriteMergedIsResumable(t *testing.T) {
	d0, d1, out := t.TempDir(), t.TempDir(), t.TempDir()
	writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
	writeJournal(t, d1, testManifest(6, 1, 2), []int{1, 3, 5}, 1)
	merged, payloads, err := MergeScan([]string{d0, d1})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMerged(out, merged, payloads); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Resumable(merged); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanJournal(out, merged.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn || len(scan.Records) != 6 {
		t.Fatalf("merged journal: torn=%t records=%d", scan.Torn, len(scan.Records))
	}
	for i, rec := range scan.Records {
		if rec.Slot != i {
			t.Fatalf("merged journal not in slot order at %d: slot %d", i, rec.Slot)
		}
	}
}

// MergeRoots is the merge behind both the restore-sim merge subcommand and
// the campaign daemon: per campaign, exactly the directory MergeScan plus
// WriteMerged produce.
func TestMergeRoots(t *testing.T) {
	// shardRoots journals a two-way sharded run of each campaign under two
	// shard roots; a truncated campaign covers a 4-slot prefix of 10.
	shardRoots := func(t *testing.T, ids ...string) []string {
		roots := []string{t.TempDir(), t.TempDir()}
		for _, id := range ids {
			slots, shard := 6, [][]int{{0, 2, 4}, {1, 3, 5}}
			if id == "truncated" {
				slots, shard = 10, [][]int{{0, 2}, {1, 3}}
			}
			for k, root := range roots {
				writeJournal(t, filepath.Join(root, id), testManifest(slots, k, 2), shard[k], 1)
			}
		}
		return roots
	}

	t.Run("matching roots", func(t *testing.T) {
		roots, out := shardRoots(t, "full", "truncated"), t.TempDir()
		merged, err := MergeRoots(out, roots)
		if err != nil {
			t.Fatal(err)
		}
		want := []MergedCampaign{{ID: "full", Filled: 6, Slots: 6}, {ID: "truncated", Filled: 4, Slots: 10}}
		if !slices.Equal(merged, want) {
			t.Fatalf("MergeRoots = %+v, want %+v", merged, want)
		}
		for _, m := range merged {
			man, payloads, err := MergeScan([]string{filepath.Join(roots[0], m.ID), filepath.Join(roots[1], m.ID)})
			if err != nil {
				t.Fatal(err)
			}
			ref := t.TempDir()
			if err := WriteMerged(ref, man, payloads); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{ManifestName, JournalName} {
				got, err := os.ReadFile(filepath.Join(out, m.ID, name))
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join(ref, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s/%s differs from WriteMerged's bytes", m.ID, name)
				}
			}
		}
	})

	t.Run("different campaigns", func(t *testing.T) {
		roots := shardRoots(t, "a", "b")
		writeJournal(t, filepath.Join(roots[1], "c"), testManifest(6, 1, 2), []int{1, 3, 5}, 1)
		_, err := MergeRoots(t.TempDir(), roots)
		if !errors.Is(err, ErrManifestMismatch) || !strings.Contains(err.Error(), "campaign c ") {
			t.Fatalf("roots holding different campaigns: err = %v", err)
		}
		// The other way round: the first root holds the extra campaign.
		_, err = MergeRoots(t.TempDir(), []string{roots[1], roots[0]})
		if !errors.Is(err, ErrManifestMismatch) || !strings.Contains(err.Error(), "campaign c ") {
			t.Fatalf("first root holding an extra campaign: err = %v", err)
		}
	})

	t.Run("empty root", func(t *testing.T) {
		root := t.TempDir()
		_, err := MergeRoots(t.TempDir(), []string{root, t.TempDir()})
		if !errors.Is(err, ErrNoCampaign) || !strings.Contains(err.Error(), root) {
			t.Fatalf("empty root: err = %v", err)
		}
	})
}

func TestWriterUnflushedBatchNotVisible(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(dir, 0, 100) // batch far larger than appends
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, payload(0)); err != nil {
		t.Fatal(err)
	}
	// Before a flush the record is buffered only; the on-disk tail is clean.
	scan, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 0 || scan.Torn {
		t.Fatalf("unflushed batch leaked: %+v", scan)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.Flushes(); got != 1 {
		t.Fatalf("flushes = %d", got)
	}
	scan, err = ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 1 {
		t.Fatalf("after flush: %d records", len(scan.Records))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// S1 regression: a slot journalled twice with identical payloads is the
// benign residue of an interrupted run re-running a batch; merge takes the
// first copy. Differing payloads for one slot remain a hard error.
func TestMergeScanDuplicateIdenticalSlotFirstWins(t *testing.T) {
	root := t.TempDir()
	d0, d1 := filepath.Join(root, "s0"), filepath.Join(root, "s1")
	writeJournal(t, d0, testManifest(4, 0, 2), []int{0, 2, 2}, 1)
	writeJournal(t, d1, testManifest(4, 1, 2), []int{1, 3}, 1)
	man, payloads, err := MergeScan([]string{d0, d1})
	if err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if len(payloads) != 4 {
		t.Fatalf("covered %d slots, want 4", len(payloads))
	}
	if man.ShardCount != 1 {
		t.Fatalf("merged manifest still sharded: %+v", man)
	}
	for s, p := range payloads {
		if !bytes.Equal(p, payload(s)) {
			t.Fatalf("slot %d payload %q", s, p)
		}
	}
}

func TestMergeScanDuplicateDifferingSlotIsCorrupt(t *testing.T) {
	root := t.TempDir()
	d0, d1 := filepath.Join(root, "s0"), filepath.Join(root, "s1")
	m0 := testManifest(4, 0, 2)
	if err := WriteManifest(d0, m0); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(d0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		slot int
		p    []byte
	}{{0, payload(0)}, {2, payload(2)}, {2, []byte(`{"slot":2,"differs":true}`)}} {
		if err := w.Append(rec.slot, rec.p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, d1, testManifest(4, 1, 2), []int{1, 3}, 1)
	if _, _, err := MergeScan([]string{d0, d1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("differing duplicate: got %v, want ErrCorrupt", err)
	}
}

// S2 pin: a batch below one clamps to flush-every-record, and a zero-length
// payload is a legal record that survives the round trip.
func TestWriterBatchClampAndEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(4, 0, 1)
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(dir, 0, -3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, payload(2)); err != nil {
		t.Fatal(err)
	}
	if got := w.Flushes(); got != 3 {
		t.Fatalf("%d flushes for 3 appends at clamped batch, want 3", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn || len(scan.Records) != 3 {
		t.Fatalf("torn=%v records=%d", scan.Torn, len(scan.Records))
	}
	for i := 0; i < 2; i++ {
		if len(scan.Records[i].Payload) != 0 {
			t.Fatalf("empty payload came back as %q", scan.Records[i].Payload)
		}
	}
	if !bytes.Equal(scan.Records[2].Payload, payload(2)) {
		t.Fatal("payload mismatch")
	}
}
