// Package campaignio defines the durable on-disk form of a fault-injection
// campaign: a manifest identifying the trial plan plus an append-only,
// checksummed journal of per-trial results.
//
// The paper's campaigns are statistical — thousands of trials per benchmark
// (Section 5.1) — and at production scale they must survive interruption and
// spread across processes and machines. The format here is what makes that
// safe without giving up the engine's determinism contract: every trial is a
// pure function of the campaign configuration and its (point, trial) slot, so
// a journal is nothing more than a cache of slots already computed. A resumed
// or merged campaign that validates the manifest and re-runs only the missing
// slots is byte-identical to a one-shot serial run.
//
// On-disk layout of a campaign directory:
//
//	manifest.json   plan identity: format version, campaign kind, config
//	                hash, seed, benchmark, slot count, shard coordinates.
//	                Published atomically (internal/atomicfile) before the
//	                first trial result.
//	journal.restj   the 8-byte magic 'RSTJRNL1', then records. Each record
//	                is slot(uint32 LE) | len(uint32 LE) | payload |
//	                crc32(IEEE, over slot+len+payload). Appended in fsync'd
//	                batches. A journal with any other header is corrupt.
//
// Crash-consistency guarantees:
//
//   - A record is visible iff its checksum verifies. A crash mid-append
//     leaves a torn tail (a partial final record); Scan detects it,
//     reports it, and resumable callers truncate it away before appending
//     — the trials it covered simply re-run. A torn tail is never silently
//     treated as data.
//   - A checksum mismatch anywhere before the tail means real corruption
//     (bit rot, concurrent writers, wrong file) and is always a hard error.
//   - The manifest is written before the journal, atomically, so a journal
//     can never exist without the plan that interprets it.
package campaignio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/atomicfile"
)

// FormatVersion is the current on-disk format version; bumped on any
// incompatible change to the manifest schema or journal framing.
const FormatVersion = 1

// File names inside a campaign directory.
const (
	ManifestName = "manifest.json"
	JournalName  = "journal.restj"
)

// magic opens every journal file.
var magic = [8]byte{'R', 'S', 'T', 'J', 'R', 'N', 'L', '1'}

// maxPayload bounds one record's payload so a corrupt length field cannot
// drive a giant allocation. Trial records are a few hundred bytes.
const maxPayload = 1 << 20

// Sentinel errors, matched with errors.Is by callers that distinguish
// recoverable from fatal journal damage.
var (
	// ErrCorrupt reports journal damage that resumption must not repair
	// silently: a checksum mismatch, an impossible slot or length, or a
	// bad header.
	ErrCorrupt = errors.New("campaignio: journal corrupt")
	// ErrTornTail reports a partial final record — the expected residue of
	// a crash mid-append. Resumable callers truncate it; merge refuses it.
	ErrTornTail = errors.New("campaignio: torn journal tail")
	// ErrManifestMismatch reports a manifest incompatible with the live
	// configuration or with its sibling shards.
	ErrManifestMismatch = errors.New("campaignio: manifest mismatch")
	// ErrNoCampaign reports an operation aimed at a location that holds no
	// campaign at all: an empty shard-directory list, a nonexistent
	// directory, or a directory without a manifest. The error text lists
	// what was expected versus what was actually found, so a mistyped
	// path is diagnosable from the message alone.
	ErrNoCampaign = errors.New("campaignio: no campaign found")
)

// Manifest identifies a campaign's trial plan. Two runs with equal manifests
// (shard coordinates aside) compute identical trial results for every slot,
// which is what makes resuming and merging sound.
type Manifest struct {
	Version    int    `json:"version"`
	Kind       string `json:"kind"`        // campaign type, e.g. "uarch" or "vm"
	ConfigHash string `json:"config_hash"` // fingerprint of every plan-relevant config field
	Seed       int64  `json:"seed"`
	Bench      string `json:"bench"`
	Slots      int    `json:"slots"` // total (point, trial) slots in the full plan

	// Shard coordinates: this journal holds the slots s with
	// s % ShardCount == ShardIndex. An unsharded campaign is 0 of 1.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`

	// Aux carries campaign-kind-specific aggregates (for the
	// microarchitectural campaign: state-space bit counts and hardening
	// stats). Part of the plan: equal, modulo whitespace, across
	// compatible shards.
	Aux json.RawMessage `json:"aux,omitempty"`
}

// Owns reports whether the manifest's shard is responsible for a slot.
func (m Manifest) Owns(slot int) bool {
	if m.ShardCount <= 1 {
		return true
	}
	return slot%m.ShardCount == m.ShardIndex
}

// SamePlan reports whether two manifests describe the same trial plan
// (everything but the shard index must agree, including the Aux bytes).
func (m Manifest) SamePlan(o Manifest) error {
	switch {
	case m.Version != o.Version:
		return fmt.Errorf("%w: format version %d vs %d", ErrManifestMismatch, m.Version, o.Version)
	case m.Kind != o.Kind:
		return fmt.Errorf("%w: campaign kind %q vs %q", ErrManifestMismatch, m.Kind, o.Kind)
	case m.ConfigHash != o.ConfigHash:
		return fmt.Errorf("%w: config hash %s vs %s", ErrManifestMismatch, m.ConfigHash, o.ConfigHash)
	case m.Seed != o.Seed:
		return fmt.Errorf("%w: seed %d vs %d", ErrManifestMismatch, m.Seed, o.Seed)
	case m.Bench != o.Bench:
		return fmt.Errorf("%w: benchmark %q vs %q", ErrManifestMismatch, m.Bench, o.Bench)
	case m.Slots != o.Slots:
		return fmt.Errorf("%w: %d slots vs %d", ErrManifestMismatch, m.Slots, o.Slots)
	case m.ShardCount != o.ShardCount:
		return fmt.Errorf("%w: shard count %d vs %d", ErrManifestMismatch, m.ShardCount, o.ShardCount)
	case compactJSON(m.Aux) != compactJSON(o.Aux):
		return fmt.Errorf("%w: campaign aggregates differ", ErrManifestMismatch)
	}
	return nil
}

// compactJSON normalises raw JSON for comparison: the manifest writer
// re-indents Aux and escapes HTML characters in it, so byte equality only
// holds after the same encoding.
func compactJSON(raw json.RawMessage) string {
	data, err := json.Marshal(raw)
	if err != nil {
		return string(raw)
	}
	return string(data)
}

// Resumable reports whether a journal written under o can be continued by a
// run configured as m: same plan AND same shard.
func (m Manifest) Resumable(o Manifest) error {
	if err := m.SamePlan(o); err != nil {
		return err
	}
	if m.ShardIndex != o.ShardIndex {
		return fmt.Errorf("%w: shard index %d vs %d", ErrManifestMismatch, m.ShardIndex, o.ShardIndex)
	}
	return nil
}

// WriteManifest publishes the manifest as dir/ManifestName atomically, so a
// crash never leaves a partial manifest. The directory is created if needed.
func WriteManifest(dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(dir, ManifestName), append(data, '\n'))
}

// ReadManifest loads dir's manifest.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Version != FormatVersion {
		return Manifest{}, fmt.Errorf("%w: format version %d (this build reads %d)",
			ErrManifestMismatch, m.Version, FormatVersion)
	}
	if m.ShardCount < 1 || m.ShardIndex < 0 || m.ShardIndex >= m.ShardCount {
		return Manifest{}, fmt.Errorf("%w: shard %d of %d", ErrCorrupt, m.ShardIndex, m.ShardCount)
	}
	return m, nil
}

// HasManifest reports whether dir holds a campaign manifest.
func HasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, ManifestName))
	return err == nil
}

// ListCampaigns returns the campaign IDs — subdirectory names holding a
// manifest — under a shard or merge root, in sorted order. A nonexistent
// root is an empty listing, not an error: to a scanner it holds the same
// campaigns an empty directory does.
func ListCampaigns(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && HasManifest(filepath.Join(root, e.Name())) {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// describeDir summarises what a manifest-less shard directory actually
// contains, for ErrNoCampaign messages.
func describeDir(dir string) string {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return "directory does not exist"
	}
	if err != nil {
		return err.Error()
	}
	if len(entries) == 0 {
		return "directory is empty"
	}
	const maxNames = 6
	names := make([]string, 0, maxNames+1)
	for i, e := range entries {
		if i == maxNames {
			names = append(names, fmt.Sprintf("... %d more", len(entries)-maxNames))
			break
		}
		names = append(names, e.Name())
	}
	return "contains " + strings.Join(names, ", ")
}

// Record is one journaled trial result: the slot it fills and the
// campaign-kind-specific payload (JSON of the trial struct).
type Record struct {
	Slot    int
	Payload []byte
}

// ScanResult is what a journal scan recovered.
type ScanResult struct {
	Records []Record
	// ValidLen is the byte offset of the last fully verified record's
	// end — where an appending writer may safely continue after
	// truncating everything beyond it.
	ValidLen int64
	// Torn is set when bytes after ValidLen form a partial record (crash
	// mid-append). The partial record's slots are NOT in Records.
	Torn bool
}

// ScanJournal reads dir's journal, verifying every record checksum. slots
// bounds valid slot numbers (from the manifest). A missing journal file is
// an empty, clean scan. A torn tail is reported via the result, not an
// error; corruption before the tail is always an error.
func ScanJournal(dir string, slots int) (*ScanResult, error) {
	f, err := os.Open(filepath.Join(dir, JournalName))
	if errors.Is(err, os.ErrNotExist) {
		return &ScanResult{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()

	res := &ScanResult{}
	var hdr [8]byte
	switch _, err := io.ReadFull(f, hdr[:]); {
	case errors.Is(err, io.EOF):
		// Zero-length file: a writer was created but never flushed.
		return res, nil
	case errors.Is(err, io.ErrUnexpectedEOF):
		res.Torn = true
		return res, nil
	case err != nil:
		return nil, err
	case hdr != magic:
		return nil, fmt.Errorf("%w: bad journal magic %q", ErrCorrupt, hdr[:])
	}
	res.ValidLen = int64(len(magic))

	var rec [8]byte
	for {
		if _, err := io.ReadFull(f, rec[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return res, nil // clean end on a record boundary
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				res.Torn = true
				return res, nil
			}
			return nil, err
		}
		slot := binary.LittleEndian.Uint32(rec[0:4])
		length := binary.LittleEndian.Uint32(rec[4:8])
		if length > maxPayload {
			return nil, fmt.Errorf("%w: record at offset %d: payload length %d exceeds limit",
				ErrCorrupt, res.ValidLen, length)
		}
		buf := make([]byte, int(length)+4)
		if _, err := io.ReadFull(f, buf); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				res.Torn = true
				return res, nil
			}
			return nil, err
		}
		payload := buf[:length]
		sum := binary.LittleEndian.Uint32(buf[length:])
		crc := crc32.NewIEEE()
		crc.Write(rec[:])
		crc.Write(payload)
		if sum != crc.Sum32() {
			return nil, fmt.Errorf("%w: record at offset %d: checksum mismatch", ErrCorrupt, res.ValidLen)
		}
		if int(slot) >= slots {
			return nil, fmt.Errorf("%w: record at offset %d: slot %d outside plan of %d",
				ErrCorrupt, res.ValidLen, slot, slots)
		}
		res.Records = append(res.Records, Record{Slot: int(slot), Payload: payload})
		res.ValidLen += int64(len(rec)) + int64(len(buf))
	}
}

// Writer appends checksummed records to a journal in fsync'd batches. It is
// safe for concurrent use: campaign workers append trial results as they
// finish. A crash between flushes loses at most the unflushed batch, whose
// trials simply re-run on resume.
type Writer struct {
	mu      sync.Mutex
	f       *os.File
	buf     []byte
	pending int
	batch   int
	flushes int64
	closed  bool
}

// OpenWriter opens dir's journal for appending at validLen (from a prior
// ScanJournal; 0 for a fresh journal), truncating any torn tail beyond it.
// batch is the number of records per fsync (minimum 1).
func OpenWriter(dir string, validLen int64, batch int) (*Writer, error) {
	if batch < 1 {
		batch = 1
	}
	f, err := os.OpenFile(filepath.Join(dir, JournalName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if validLen < int64(len(magic)) {
		// Fresh (or header-torn) journal: start over with a clean header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(magic[:]); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		// Records appended behind a foreign header would be unreadable.
		var hdr [8]byte
		if _, err := f.ReadAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, err
		}
		if hdr != magic {
			f.Close()
			return nil, fmt.Errorf("%w: bad journal magic %q", ErrCorrupt, hdr[:])
		}
		// Drop the torn tail, if any, and position at the clean end.
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(validLen, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, batch: batch}, nil
}

// Append buffers one record; every batch-th record flushes the buffer and
// fsyncs the file.
func (w *Writer) Append(slot int, payload []byte) error {
	if slot < 0 || len(payload) > maxPayload {
		return fmt.Errorf("campaignio: invalid record (slot %d, %d bytes)", slot, len(payload))
	}
	var rec [8]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(slot))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(rec[:])
	crc.Write(payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("campaignio: append to closed journal")
	}
	w.buf = append(w.buf, rec[:]...)
	w.buf = append(w.buf, payload...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc.Sum32())
	w.pending++
	if w.pending >= w.batch {
		return w.flushLocked()
	}
	return nil
}

// Flush writes and fsyncs any buffered records, leaving the journal tail
// clean on a record boundary.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	w.pending = 0
	w.flushes++
	return nil
}

// Flushes returns how many fsync'd batches the writer has committed.
func (w *Writer) Flushes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushes
}

// Close flushes buffered records and closes the file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	ferr := w.flushLocked()
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// MergeScan reads one campaign's shard directories and assembles the full
// result payloads. It verifies that every manifest describes the same plan,
// that the shard indices are exactly 0..n-1 for n directories, that every
// record sits in its owning shard (strays are errors), and that the recorded
// slots form a gap-free prefix of the plan (campaigns truncated by a halting
// workload journal a shorter prefix — deterministically the same one in
// every shard). A slot recorded more than once is fine as long as every copy
// carries identical bytes — the normal residue of a run interrupted after
// journalling but re-run from an older scan — and the first copy wins;
// differing copies are corruption. Torn or corrupt journals are hard errors
// here: merging repairs nothing.
//
// It returns the merged (unsharded) manifest and the payloads indexed by
// slot, len == the covered prefix.
func MergeScan(dirs []string) (Manifest, [][]byte, error) {
	if len(dirs) == 0 {
		return Manifest{}, nil, fmt.Errorf("%w: no shard directories to merge (expected at least one campaign directory)",
			ErrNoCampaign)
	}
	manifests := make([]Manifest, len(dirs))
	var noManifest []string
	for i, dir := range dirs {
		m, err := ReadManifest(dir)
		if errors.Is(err, os.ErrNotExist) {
			// Collect every manifest-less directory before failing, so one
			// error names all of them alongside what they actually hold.
			noManifest = append(noManifest, fmt.Sprintf("%s (%s)", dir, describeDir(dir)))
			continue
		}
		if err != nil {
			return Manifest{}, nil, fmt.Errorf("%s: %w", dir, err)
		}
		manifests[i] = m
	}
	if len(noManifest) > 0 {
		return Manifest{}, nil, fmt.Errorf("%w: %d of %d shard directories hold no %s: %s",
			ErrNoCampaign, len(noManifest), len(dirs), ManifestName, strings.Join(noManifest, "; "))
	}
	base := manifests[0]
	if base.ShardCount != len(dirs) {
		return Manifest{}, nil, fmt.Errorf("%w: %d shard directories for a %d-way campaign",
			ErrManifestMismatch, len(dirs), base.ShardCount)
	}
	seenShard := make([]string, base.ShardCount)
	for i, m := range manifests {
		if err := base.SamePlan(m); err != nil {
			return Manifest{}, nil, fmt.Errorf("%s: %w", dirs[i], err)
		}
		if prev := seenShard[m.ShardIndex]; prev != "" {
			return Manifest{}, nil, fmt.Errorf("%w: shard %d appears in both %s and %s",
				ErrManifestMismatch, m.ShardIndex, prev, dirs[i])
		}
		seenShard[m.ShardIndex] = dirs[i]
	}

	payloads := make([][]byte, base.Slots)
	covered := 0
	for i, dir := range dirs {
		m := manifests[i]
		scan, err := ScanJournal(dir, m.Slots)
		if err != nil {
			return Manifest{}, nil, fmt.Errorf("%s: %w", dir, err)
		}
		if scan.Torn {
			return Manifest{}, nil, fmt.Errorf("%s: %w (resume the shard to repair it before merging)",
				dir, ErrTornTail)
		}
		for _, rec := range scan.Records {
			if !m.Owns(rec.Slot) {
				return Manifest{}, nil, fmt.Errorf("%s: %w: slot %d belongs to shard %d, not %d",
					dir, ErrCorrupt, rec.Slot, rec.Slot%m.ShardCount, m.ShardIndex)
			}
			if prev := payloads[rec.Slot]; prev != nil {
				if !bytes.Equal(prev, rec.Payload) {
					return Manifest{}, nil, fmt.Errorf("%s: %w: slot %d recorded twice with differing payloads",
						dir, ErrCorrupt, rec.Slot)
				}
				continue // duplicate of an identical record: first wins
			}
			payloads[rec.Slot] = rec.Payload
			if rec.Slot >= covered {
				covered = rec.Slot + 1
			}
		}
	}
	// The covered slots must form a gap-free prefix: a hole means a shard
	// is incomplete (e.g. an interrupted run that was never resumed).
	missing := 0
	for slot := 0; slot < covered; slot++ {
		if payloads[slot] == nil {
			missing++
		}
	}
	if missing > 0 {
		return Manifest{}, nil, fmt.Errorf(
			"campaignio: %d of the first %d slots missing (shard incomplete — resume it to completion before merging)",
			missing, covered)
	}

	merged := base
	merged.ShardIndex, merged.ShardCount = 0, 1
	return merged, payloads[:covered], nil
}

// WriteMerged writes a merged campaign directory: the unsharded manifest
// plus a journal holding payloads in slot order. The result is resumable —
// a campaign pointed at it finds every slot complete and re-runs nothing.
func WriteMerged(dir string, m Manifest, payloads [][]byte) error {
	if err := WriteManifest(dir, m); err != nil {
		return err
	}
	w, err := OpenWriter(dir, 0, 256)
	if err != nil {
		return err
	}
	for slot, p := range payloads {
		if err := w.Append(slot, p); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// MergedCampaign is one campaign MergeRoots wrote.
type MergedCampaign struct {
	ID     string // the campaign's directory name under every root
	Filled int    // slots merged: the plan's, or a prefix if the campaign truncated
	Slots  int    // slots in the plan
}

// MergeRoots merges the campaigns of a sharded run into outRoot. Each root is
// one shard's campaign root, holding a directory per campaign ID, and every
// root must hold the same campaign IDs. Each campaign's shard directories
// pass through MergeScan and WriteMerged into outRoot/<ID>, in ID order. A
// first root holding no campaign is ErrNoCampaign.
func MergeRoots(outRoot string, roots []string) ([]MergedCampaign, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("%w: no shard roots to merge", ErrNoCampaign)
	}
	ids, err := ListCampaigns(roots[0])
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no campaign directories under %s", ErrNoCampaign, roots[0])
	}
	for _, root := range roots[1:] {
		other, err := ListCampaigns(root)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(ids, other) {
			return nil, fmt.Errorf("%w: campaign %s is under only one of %s and %s",
				ErrManifestMismatch, firstDiff(ids, other), roots[0], root)
		}
	}
	merged := make([]MergedCampaign, len(ids))
	dirs := make([]string, len(roots))
	for i, id := range ids {
		for k, root := range roots {
			dirs[k] = filepath.Join(root, id)
		}
		man, payloads, err := MergeScan(dirs)
		if err != nil {
			return nil, fmt.Errorf("merging %s: %w", id, err)
		}
		if err := WriteMerged(filepath.Join(outRoot, id), man, payloads); err != nil {
			return nil, fmt.Errorf("writing merged %s: %w", id, err)
		}
		merged[i] = MergedCampaign{ID: id, Filled: len(payloads), Slots: man.Slots}
	}
	return merged, nil
}

// firstDiff returns the first ID that only one of two different sorted ID
// lists holds.
func firstDiff(a, b []string) string {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	switch {
	case len(a) == 0:
		return b[0]
	case len(b) == 0:
		return a[0]
	}
	return min(a[0], b[0])
}
