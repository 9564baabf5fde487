package checkpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

func newMem(t *testing.T) *mem.Memory {
	t.Helper()
	m := mem.New()
	m.Map(0, 4*mem.PageSize, mem.PermRW)
	return m
}

func TestCreateAndRestoreOldest(t *testing.T) {
	m := newMem(t)
	s := NewStore(m, 2)

	var regs [32]uint64
	regs[1] = 100
	if err := m.WriteQ(0, 1); err != nil {
		t.Fatal(err)
	}
	s.Create(regs, 0x1000, 500)

	if err := m.WriteQ(0, 2); err != nil {
		t.Fatal(err)
	}
	regs[1] = 200
	s.Create(regs, 0x2000, 600)

	if err := m.WriteQ(0, 3); err != nil {
		t.Fatal(err)
	}

	cp, err := s.RestoreOldest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.PC != 0x1000 || cp.Regs[1] != 100 || cp.Retired != 500 {
		t.Errorf("restored wrong checkpoint: %+v", cp)
	}
	if v, _ := m.ReadQ(0); v != 1 {
		t.Errorf("memory not unwound: %d", v)
	}
	if s.Len() != 0 {
		t.Errorf("checkpoints remain after restore: %d", s.Len())
	}
}

func TestCapacityRetiresOldest(t *testing.T) {
	m := newMem(t)
	s := NewStore(m, 2)
	var regs [32]uint64

	if err := m.WriteQ(0, 1); err != nil {
		t.Fatal(err)
	}
	s.Create(regs, 0x100, 1)
	if err := m.WriteQ(0, 2); err != nil {
		t.Fatal(err)
	}
	s.Create(regs, 0x200, 2)
	if err := m.WriteQ(0, 3); err != nil {
		t.Fatal(err)
	}
	s.Create(regs, 0x300, 3) // retires the 0x100 checkpoint

	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	cp, err := s.RestoreOldest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.PC != 0x200 {
		t.Errorf("oldest pc = %#x, want 0x200", cp.PC)
	}
	// Memory must unwind to the state at checkpoint 0x200 (value 2), and
	// the retired checkpoint's state (value 1) must be unreachable.
	if v, _ := m.ReadQ(0); v != 2 {
		t.Errorf("memory = %d, want 2", v)
	}
}

func TestMarkRebaseAfterRetirement(t *testing.T) {
	// Regression: retiring the oldest checkpoint compacts the journal;
	// surviving marks must be rebased or restores will unwind the wrong
	// distance.
	m := newMem(t)
	s := NewStore(m, 2)
	var regs [32]uint64

	for i := uint64(1); i <= 6; i++ {
		if err := m.WriteQ(8, i*10); err != nil {
			t.Fatal(err)
		}
		s.Create(regs, 0x100*i, i)
	}
	// Live checkpoints: i=5 (mem=50) and i=6 (mem=60).
	cp, err := s.RestoreOldest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.PC != 0x500 {
		t.Fatalf("oldest pc = %#x", cp.PC)
	}
	if v, _ := m.ReadQ(8); v != 50 {
		t.Errorf("memory = %d, want 50", v)
	}
}

func TestRestoreNewest(t *testing.T) {
	m := newMem(t)
	s := NewStore(m, 2)
	var regs [32]uint64

	s.Create(regs, 0x100, 1)
	if err := m.WriteQ(16, 7); err != nil {
		t.Fatal(err)
	}
	regs[2] = 9
	s.Create(regs, 0x200, 2)
	if err := m.WriteQ(16, 8); err != nil {
		t.Fatal(err)
	}

	cp, err := s.RestoreNewest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.PC != 0x200 || cp.Regs[2] != 9 {
		t.Errorf("restored %+v", cp)
	}
	if v, _ := m.ReadQ(16); v != 7 {
		t.Errorf("memory = %d, want 7", v)
	}
	// The older checkpoint is still live.
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
}

func TestEmptyStoreErrors(t *testing.T) {
	s := NewStore(newMem(t), 2)
	if _, err := s.RestoreOldest(); !errors.Is(err, ErrEmpty) {
		t.Errorf("RestoreOldest on empty = %v", err)
	}
	if _, err := s.RestoreNewest(); !errors.Is(err, ErrEmpty) {
		t.Errorf("RestoreNewest on empty = %v", err)
	}
	if _, ok := s.Oldest(); ok {
		t.Error("Oldest on empty store succeeded")
	}
	if _, ok := s.Newest(); ok {
		t.Error("Newest on empty store succeeded")
	}
}

func TestClearMakesStatePermanent(t *testing.T) {
	m := newMem(t)
	s := NewStore(m, 2)
	var regs [32]uint64
	s.Create(regs, 0x100, 1)
	if err := m.WriteQ(0, 42); err != nil {
		t.Fatal(err)
	}
	s.Clear()
	if s.Len() != 0 {
		t.Error("clear left checkpoints")
	}
	if m.JournalLen() != 0 {
		t.Error("clear left journal records")
	}
	if v, _ := m.ReadQ(0); v != 42 {
		t.Error("clear rolled back state")
	}
}

func TestOldestNewestAccessors(t *testing.T) {
	m := newMem(t)
	s := NewStore(m, 3)
	var regs [32]uint64
	s.Create(regs, 0x100, 1)
	s.Create(regs, 0x200, 2)
	old, ok := s.Oldest()
	if !ok || old.PC != 0x100 {
		t.Errorf("oldest = %+v, %v", old, ok)
	}
	newest, ok := s.Newest()
	if !ok || newest.PC != 0x200 {
		t.Errorf("newest = %+v, %v", newest, ok)
	}
	if s.Capacity() != 3 {
		t.Errorf("capacity = %d", s.Capacity())
	}
}

func TestMinimumCapacity(t *testing.T) {
	s := NewStore(newMem(t), 0)
	if s.Capacity() != 1 {
		t.Errorf("capacity = %d, want clamped to 1", s.Capacity())
	}
}

func TestClearBoundsJournalUntilNextCreate(t *testing.T) {
	// Regression: Clear used to leave journalling enabled with zero live
	// checkpoints, so a store-heavy caller that never checkpointed again
	// accrued an unbounded journal that nothing could ever roll back.
	m := newMem(t)
	s := NewStore(m, 2)
	var regs [32]uint64
	s.Create(regs, 0x100, 1)
	if err := m.WriteQ(0, 1); err != nil {
		t.Fatal(err)
	}
	s.Clear()

	for i := uint64(0); i < 64; i++ {
		if err := m.WriteQ(i*8, i); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.JournalLen(); n != 0 {
		t.Fatalf("journal grew to %d records after Clear with no checkpoints", n)
	}

	// The next Create re-arms journalling and rollback works again.
	s.Create(regs, 0x200, 2)
	if err := m.WriteQ(0, 99); err != nil {
		t.Fatal(err)
	}
	if m.JournalLen() == 0 {
		t.Fatal("journalling not re-armed by Create after Clear")
	}
	if _, err := s.RestoreNewest(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadQ(0); v != 0 {
		t.Errorf("[0] = %d after restore, want 0", v)
	}
}

// TestRestoreAfterClearStopsAtCreateBoundary pins where the rollback horizon
// lands after a Clear: exactly at the next Create, never earlier. Writes made
// while journalling was off are permanent; a full restore-oldest — even after
// a capacity retirement has rebased marks against the reset journal — must
// reproduce the state at the first post-Clear Create byte for byte.
func TestRestoreAfterClearStopsAtCreateBoundary(t *testing.T) {
	m := newMem(t)
	s := NewStore(m, 2)
	var regs [32]uint64
	s.Create(regs, 0x100, 1)
	if err := m.WriteQ(0, 11); err != nil {
		t.Fatal(err)
	}
	s.Clear()

	// Unjournalled era: these writes must survive every later rollback.
	if err := m.WriteQ(0, 22); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteQ(8, 33); err != nil {
		t.Fatal(err)
	}

	// Three checkpoints through a capacity-2 store: the first post-Clear
	// checkpoint retires, exercising the mark rebase against a journal that
	// restarted from empty.
	s.Create(regs, 0x200, 2)
	if err := m.WriteQ(0, 44); err != nil {
		t.Fatal(err)
	}
	s.Create(regs, 0x300, 3)
	if err := m.WriteQ(8, 55); err != nil {
		t.Fatal(err)
	}
	s.Create(regs, 0x400, 4)
	if err := m.WriteQ(16, 66); err != nil {
		t.Fatal(err)
	}

	cp, err := s.RestoreOldest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.PC != 0x300 {
		t.Fatalf("oldest live checkpoint PC %#x, want 0x300 (0x200 retired)", cp.PC)
	}
	// State at the 0x300 Create: [0]=44 (journalled era), [8]=33 and the
	// unjournalled [0]=22 overwrite long since permanent, [16] untouched.
	for _, want := range []struct{ addr, val uint64 }{{0, 44}, {8, 33}, {16, 0}} {
		if v, _ := m.ReadQ(want.addr); v != want.val {
			t.Errorf("[%d] = %d after restore, want %d", want.addr, v, want.val)
		}
	}
}

// TestRandomizedOpsMatchReferenceModel drives the journal-based store with a
// random interleaving of Create/RestoreNewest/RestoreOldest/Clear and random
// writes, comparing every restored state against a reference model that
// checkpoints by full memory copy. This pins the DiscardTo mark-rebase
// contract: retiring the oldest checkpoint compacts the journal, and every
// surviving mark must be rebased by exactly the dropped record count or a
// later restore unwinds the wrong distance.
func TestRandomizedOpsMatchReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3} {
		capacity := capacity
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xC0FFEE + capacity)))
			m := newMem(t)
			s := NewStore(m, capacity)

			// Reference model: full copies, same retirement policy.
			var refs []*mem.Memory

			write := func() {
				addr := uint64(rng.Intn(4*mem.PageSize/8)) * 8
				if err := m.WriteQ(addr, rng.Uint64()); err != nil {
					t.Fatal(err)
				}
			}
			var regs [32]uint64
			for op := 0; op < 2000; op++ {
				for i, n := 0, rng.Intn(4); i < n; i++ {
					write()
				}
				switch rng.Intn(8) {
				case 0, 1, 2, 3: // bias toward Create to exercise retirement
					s.Create(regs, uint64(op), uint64(op))
					if len(refs) == capacity {
						refs = refs[1:]
					}
					refs = append(refs, m.Clone())
				case 4, 5:
					_, err := s.RestoreNewest()
					if len(refs) == 0 {
						if err == nil {
							t.Fatalf("op %d: RestoreNewest succeeded on empty store", op)
						}
						continue
					}
					if err != nil {
						t.Fatalf("op %d: RestoreNewest: %v", op, err)
					}
					want := refs[len(refs)-1]
					refs = refs[:len(refs)-1]
					if !m.Equal(want) {
						addr, _ := m.FirstDifference(want)
						t.Fatalf("op %d: RestoreNewest state diverged at %#x", op, addr)
					}
				case 6:
					_, err := s.RestoreOldest()
					if len(refs) == 0 {
						if err == nil {
							t.Fatalf("op %d: RestoreOldest succeeded on empty store", op)
						}
						continue
					}
					if err != nil {
						t.Fatalf("op %d: RestoreOldest: %v", op, err)
					}
					want := refs[0]
					refs = refs[:0]
					if !m.Equal(want) {
						addr, _ := m.FirstDifference(want)
						t.Fatalf("op %d: RestoreOldest state diverged at %#x", op, addr)
					}
				case 7:
					s.Clear()
					refs = refs[:0]
					if m.JournalLen() != 0 {
						t.Fatalf("op %d: Clear left %d journal records", op, m.JournalLen())
					}
				}
				if s.Len() != len(refs) {
					t.Fatalf("op %d: store len %d != model len %d", op, s.Len(), len(refs))
				}
			}
		})
	}
}
