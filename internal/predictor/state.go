package predictor

// This file holds the golden-checkpoint serialisation of the predictor
// structures. Each SaveState emits only mutable state (tables, history,
// stack contents) in a fixed little-endian layout; geometry comes from each
// structure's configuration, so LoadState validates sizes against the live
// structure and refuses blobs from a differently configured one.

import (
	"encoding/binary"
	"fmt"
)

// SaveState serialises the combined predictor: bimodal table | gshare table
// | chooser table | u64 zero. The trailing word once held a global history
// register that no pipeline moved; it stays, written as zero, so images keep
// their layout.
func (c *Combined) SaveState() []byte {
	nb, ng, nc := len(c.bimodal.table), len(c.gshare.table), len(c.chooser)
	out := make([]byte, 0, nb+ng+nc+8)
	out = append(out, c.bimodal.table...)
	out = append(out, c.gshare.table...)
	out = append(out, c.chooser...)
	return append(out, make([]byte, 8)...)
}

// LoadState restores a Combined blob into an identically configured
// predictor.
func (c *Combined) LoadState(b []byte) error {
	nb, ng, nc := len(c.bimodal.table), len(c.gshare.table), len(c.chooser)
	if len(b) != nb+ng+nc+8 {
		return fmt.Errorf("predictor: combined state blob %d bytes, want %d", len(b), nb+ng+nc+8)
	}
	copy(c.bimodal.table, b[:nb])
	copy(c.gshare.table, b[nb:nb+ng])
	copy(c.chooser, b[nb+ng:nb+ng+nc])
	return nil
}

// btbRec is the serialised size of one BTB entry: u8 valid | u64 tag |
// u64 target | u32 lru.
const btbRec = 1 + 8 + 8 + 4

// SaveState serialises the BTB's entries.
func (b *BTB) SaveState() []byte {
	out := make([]byte, len(b.entries)*btbRec)
	off := 0
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid {
			out[off] = 1
		}
		binary.LittleEndian.PutUint64(out[off+1:], e.tag)
		binary.LittleEndian.PutUint64(out[off+9:], e.target)
		binary.LittleEndian.PutUint32(out[off+17:], e.lru)
		off += btbRec
	}
	return out
}

// LoadState restores a BTB blob into an identically configured BTB.
func (b *BTB) LoadState(blob []byte) error {
	if len(blob) != len(b.entries)*btbRec {
		return fmt.Errorf("predictor: btb state blob %d bytes, want %d", len(blob), len(b.entries)*btbRec)
	}
	off := 0
	for i := range b.entries {
		e := &b.entries[i]
		e.valid = blob[off] != 0
		e.tag = binary.LittleEndian.Uint64(blob[off+1:])
		e.target = binary.LittleEndian.Uint64(blob[off+9:])
		e.lru = binary.LittleEndian.Uint32(blob[off+17:])
		off += btbRec
	}
	return nil
}

// SaveState serialises the return-address stack: u64 top | u64 depth |
// stack words.
func (r *RAS) SaveState() []byte {
	out := make([]byte, 16+len(r.stack)*8)
	binary.LittleEndian.PutUint64(out[0:8], uint64(r.top))
	binary.LittleEndian.PutUint64(out[8:16], uint64(r.depth))
	for i, v := range r.stack {
		binary.LittleEndian.PutUint64(out[16+i*8:], v)
	}
	return out
}

// LoadState restores a RAS blob into a same-capacity stack.
func (r *RAS) LoadState(b []byte) error {
	if len(b) != 16+len(r.stack)*8 {
		return fmt.Errorf("predictor: ras state blob %d bytes, want %d", len(b), 16+len(r.stack)*8)
	}
	top := binary.LittleEndian.Uint64(b[0:8])
	depth := binary.LittleEndian.Uint64(b[8:16])
	if top >= uint64(len(r.stack)) || depth > uint64(len(r.stack)) {
		return fmt.Errorf("predictor: ras state top %d / depth %d out of range for capacity %d", top, depth, len(r.stack))
	}
	r.top = int(top)
	r.depth = int(depth)
	for i := range r.stack {
		r.stack[i] = binary.LittleEndian.Uint64(b[16+i*8:])
	}
	return nil
}

// SaveState serialises the JRS confidence table.
func (j *JRS) SaveState() []byte {
	return append([]byte(nil), j.table...)
}

// LoadState restores a JRS blob into an identically configured estimator.
func (j *JRS) LoadState(b []byte) error {
	if len(b) != len(j.table) {
		return fmt.Errorf("predictor: jrs state blob %d bytes, want %d", len(b), len(j.table))
	}
	copy(j.table, b)
	return nil
}

// SaveState serialises the memory-dependence predictor table.
func (m *MemDep) SaveState() []byte {
	return append([]byte(nil), m.table...)
}

// LoadState restores a MemDep blob into an identically configured predictor.
func (m *MemDep) LoadState(b []byte) error {
	if len(b) != len(m.table) {
		return fmt.Errorf("predictor: memdep state blob %d bytes, want %d", len(b), len(m.table))
	}
	copy(m.table, b)
	return nil
}
