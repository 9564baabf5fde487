package campaignio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanJournal feeds arbitrary bytes to ScanJournal. An accepted scan
// must stay inside the plan and the file, a clean scan must consume every
// byte, and re-appending the recovered records must reproduce the verified
// prefix byte for byte.
func FuzzScanJournal(f *testing.F) {
	// Seeds: the shapes of the round-trip, torn-tail, checksum and
	// bad-magic tests' journals, plus one behind the retired RSTJRNL2
	// header.
	dir := f.TempDir()
	writeJournal(f, dir, testManifest(10, 0, 1), []int{0, 1, 2, 3, 4}, 2)
	whole, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(whole)
	flipped[len(magic)+8+2] ^= 0x40
	retired := bytes.Clone(whole)
	copy(retired, "RSTJRNL2")
	for _, seed := range [][]byte{
		nil, magic[:], whole, whole[:len(whole)-3], whole[:5], flipped, []byte("NOTAJRNL"), retired,
	} {
		f.Add(seed, uint16(10))
	}
	f.Fuzz(func(t *testing.T, data []byte, slots uint16) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, JournalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := ScanJournal(dir, int(slots))
		if err != nil {
			return
		}
		for _, rec := range res.Records {
			if rec.Slot < 0 || rec.Slot >= int(slots) {
				t.Fatalf("slot %d accepted outside a plan of %d", rec.Slot, slots)
			}
		}
		if res.ValidLen > int64(len(data)) {
			t.Fatalf("ValidLen %d beyond %d bytes", res.ValidLen, len(data))
		}
		if !res.Torn && res.ValidLen != int64(len(data)) {
			t.Fatalf("clean scan ended at %d of %d bytes", res.ValidLen, len(data))
		}
		if res.ValidLen == 0 {
			if len(res.Records) != 0 {
				t.Fatalf("%d records recovered from no verified bytes", len(res.Records))
			}
			return
		}
		out := t.TempDir()
		w, err := OpenWriter(out, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range res.Records {
			if err := w.Append(rec.Slot, rec.Payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, JournalName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:res.ValidLen]) {
			t.Fatalf("re-appended records give %d bytes, differing from the %d verified", len(got), res.ValidLen)
		}
	})
}

// FuzzReadManifest feeds arbitrary bytes to ReadManifest. An accepted
// manifest must carry this build's version and a valid shard, and must
// survive WriteManifest and ReadManifest unchanged.
func FuzzReadManifest(f *testing.F) {
	good := testManifest(100, 1, 2)
	good.Aux = []byte(`{"total_bits":123}`)
	dir := f.TempDir()
	if err := WriteManifest(dir, good); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(data),
		`{"version":1,"kind":"vm","slots":4,"shard_index":0,"shard_count":1}`,
		`{"version":2,"shard_count":1}`,
		`{"version":1,"shard_index":2,"shard_count":2}`,
		`{"version":1,"shard_count":1,"aux":null}`,
		"{\"version\":1,\"shard_count\":1,\"aux\":{\"a\":\"<&\u2028\"}}",
		`{"version":1`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			return
		}
		if m.Version != FormatVersion || m.ShardIndex < 0 || m.ShardIndex >= m.ShardCount {
			t.Fatalf("accepted manifest %+v", m)
		}
		out := t.TempDir()
		if err := WriteManifest(out, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadManifest(out)
		if err != nil {
			t.Fatalf("rewritten manifest refused: %v", err)
		}
		if err := back.Resumable(m); err != nil {
			t.Fatalf("manifest changed across a rewrite: %v", err)
		}
	})
}
