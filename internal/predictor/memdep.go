package predictor

// MemDep is the memory-dependence predictor of Figure 3 ("Mem Dep Pred"),
// modelled on the Alpha 21264's wait table: loads issue speculatively past
// older stores with unresolved addresses unless their PC has previously
// caused a memory-order violation. A violation trains the table; entries
// decay over time so a load that stops conflicting regains its aggression.
type MemDep struct {
	table []uint8
	mask  uint64
}

// NewMemDep returns a wait table with 2^bits entries.
func NewMemDep(bits int) *MemDep {
	n := 1 << bits
	return &MemDep{table: make([]uint8, n), mask: uint64(n - 1)}
}

func (m *MemDep) index(pc uint64) uint64 { return (pc >> 2) & m.mask }

// ShouldWait reports whether the load at pc must wait for all older store
// addresses to resolve before issuing.
func (m *MemDep) ShouldWait(pc uint64) bool { return m.table[m.index(pc)] > 0 }

// TrainViolation records that the load at pc issued past a conflicting
// store and had to be replayed.
func (m *MemDep) TrainViolation(pc uint64) {
	m.table[m.index(pc)] = 3
}

// Decay ages every entry by one step; the pipeline calls this periodically
// (the 21264 clears its wait table on a coarse interval for the same
// reason).
func (m *MemDep) Decay() {
	for i := range m.table {
		if m.table[i] > 0 {
			m.table[i]--
		}
	}
}
