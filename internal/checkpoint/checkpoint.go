// Package checkpoint implements the architectural checkpoint store of the
// ReStore architecture (paper Section 2): periodic snapshots of the
// architectural register file plus buffered memory updates, restorable on
// demand.
//
// Register state is checkpointed by copying (the paper notes real designs
// save RAT mappings instead; the architectural effect is identical). Memory
// is checkpointed through the write journal of the memory image, which is
// functionally the paper's gated store buffer: stores between checkpoints
// are undoable until the checkpoint that covers them is retired. As in the
// paper (Section 4.3), checkpoint creation and restoration are modelled at
// zero latency and the checkpoint storage itself is assumed ECC-protected:
// it is never a fault-injection target.
package checkpoint

import (
	"errors"

	"repro/internal/mem"
)

// Checkpoint is one architectural snapshot.
type Checkpoint struct {
	Regs    [32]uint64
	PC      uint64
	Retired uint64 // retired-instruction count at creation time
	mark    mem.Mark
}

// Store keeps the most recent checkpoints over a journalled memory image.
// The paper's evaluation keeps two, so that rollback always has a
// checkpoint at least one full interval in the past (Section 5.2.3).
type Store struct {
	mem      *mem.Memory
	capacity int
	cps      []Checkpoint
}

// ErrEmpty is returned when restoring from a store with no checkpoints.
var ErrEmpty = errors.New("checkpoint: store is empty")

// NewStore wraps the memory image (enabling its write journal) and keeps up
// to capacity checkpoints.
func NewStore(m *mem.Memory, capacity int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	m.EnableJournal()
	return &Store{mem: m, capacity: capacity}
}

// Len returns the number of live checkpoints.
func (s *Store) Len() int { return len(s.cps) }

// Capacity returns the maximum number of checkpoints kept.
func (s *Store) Capacity() int { return s.capacity }

// Create snapshots the architectural state. When the store is full the
// oldest checkpoint is retired: its memory updates become permanent and can
// no longer be rolled back.
func (s *Store) Create(regs [32]uint64, pc, retired uint64) {
	// Re-arm journalling: Clear disables it (there is nothing to roll
	// back to), and the first new checkpoint is what makes writes worth
	// recording again.
	s.mem.EnableJournal()
	if len(s.cps) == s.capacity {
		dropped := s.mem.DiscardTo(s.cps[0].mark)
		s.cps = s.cps[1:]
		for i := range s.cps {
			s.cps[i].mark -= mem.Mark(dropped)
		}
	}
	s.cps = append(s.cps, Checkpoint{
		Regs:    regs,
		PC:      pc,
		Retired: retired,
		mark:    s.mem.Snapshot(),
	})
}

// Oldest returns the oldest live checkpoint without restoring it.
func (s *Store) Oldest() (Checkpoint, bool) {
	if len(s.cps) == 0 {
		return Checkpoint{}, false
	}
	return s.cps[0], true
}

// Newest returns the most recent checkpoint.
func (s *Store) Newest() (Checkpoint, bool) {
	if len(s.cps) == 0 {
		return Checkpoint{}, false
	}
	return s.cps[len(s.cps)-1], true
}

// RestoreOldest rolls memory back to the oldest checkpoint and returns it.
// All checkpoints are consumed: after a rollback the machine re-executes
// forward and takes fresh checkpoints. This matches the paper's recovery
// flow, where rollback always targets the older of the two live checkpoints
// so the rollback distance is at least one full interval.
func (s *Store) RestoreOldest() (Checkpoint, error) {
	if len(s.cps) == 0 {
		return Checkpoint{}, ErrEmpty
	}
	cp := s.cps[0]
	s.mem.RestoreTo(cp.mark)
	s.cps = s.cps[:0]
	return cp, nil
}

// RestoreNewest rolls memory back to the most recent checkpoint only. Used
// by policies that prefer minimum re-execution when the error is known to be
// young.
func (s *Store) RestoreNewest() (Checkpoint, error) {
	if len(s.cps) == 0 {
		return Checkpoint{}, ErrEmpty
	}
	cp := s.cps[len(s.cps)-1]
	s.mem.RestoreTo(cp.mark)
	s.cps = s.cps[:len(s.cps)-1]
	return cp, nil
}

// Clear drops all checkpoints, making current memory state permanent, and
// disables write journalling until the next Create. With zero live
// checkpoints nothing can ever be rolled back, so continuing to journal
// would let a store-heavy caller that never checkpoints again accrue an
// unbounded journal; instead every write is permanent immediately.
func (s *Store) Clear() {
	s.mem.DisableJournal()
	s.cps = s.cps[:0]
}
