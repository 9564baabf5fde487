// Package predictor implements the control-flow prediction hardware the
// ReStore front end leverages: direction predictors (bimodal, gshare, and
// the McFarling combining predictor the paper cites [18]), a branch target
// buffer, a return-address stack, and the JRS resetting-counter confidence
// estimator [12] that gates which mispredictions count as soft-error
// symptoms.
//
// Predictor tables are deliberately excluded from the fault-injection state
// space (paper Section 4.2: corrupt predictor entries cannot cause failure,
// only extra mispredictions), so this package keeps its state in ordinary Go
// structures rather than the pipeline's enumerable StateSpace.
package predictor

// counter2 is a saturating 2-bit counter; values 2 and 3 predict taken.
type counter2 = uint8

func bump(c counter2, taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter2
	mask  uint64
}

// NewBimodal returns a bimodal predictor with 2^bits entries.
func NewBimodal(bits int) *Bimodal {
	n := 1 << bits
	t := make([]counter2, n)
	for i := range t {
		t[i] = 2 // weakly taken: loops predict well from cold
	}
	return &Bimodal{table: t, mask: uint64(n - 1)}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict returns the predicted direction for the branch at pc.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)] >= 2 }

// Update trains the predictor with the resolved direction.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = bump(b.table[i], taken)
}

// Gshare XORs global history into the table index. The history register
// belongs to the caller: the pipeline keeps speculative fetch-time history
// (repaired on flushes) in its own state and passes it to every call, so
// prediction and training index the same table entry.
type Gshare struct {
	table []counter2
	mask  uint64
}

// NewGshare returns a gshare predictor with 2^bits entries.
func NewGshare(bits int) *Gshare {
	n := 1 << bits
	t := make([]counter2, n)
	for i := range t {
		t[i] = 2
	}
	return &Gshare{table: t, mask: uint64(n - 1)}
}

// PredictH returns the predicted direction for the branch at pc under
// global history hist.
func (g *Gshare) PredictH(pc, hist uint64) bool {
	return g.table[((pc>>2)^hist)&g.mask] >= 2
}

// UpdateH trains the counter the PredictH call with the same history used.
func (g *Gshare) UpdateH(pc uint64, taken bool, hist uint64) {
	i := ((pc >> 2) ^ hist) & g.mask
	g.table[i] = bump(g.table[i], taken)
}

// Combined is McFarling's combining predictor: a chooser table picks between
// bimodal and gshare per branch.
type Combined struct {
	bimodal *Bimodal
	gshare  *Gshare
	chooser []counter2 // >=2 selects gshare
	mask    uint64
}

// NewCombined returns a combining predictor; each component has 2^bits
// entries.
func NewCombined(bits int) *Combined {
	n := 1 << bits
	ch := make([]counter2, n)
	for i := range ch {
		ch[i] = 2
	}
	return &Combined{
		bimodal: NewBimodal(bits),
		gshare:  NewGshare(bits),
		chooser: ch,
		mask:    uint64(n - 1),
	}
}

// PredictH returns the chosen component's prediction under global history
// hist.
func (c *Combined) PredictH(pc, hist uint64) bool {
	if c.chooser[(pc>>2)&c.mask] >= 2 {
		return c.gshare.PredictH(pc, hist)
	}
	return c.bimodal.Predict(pc)
}

// UpdateH trains both components against the history the prediction was
// made with, and moves the chooser toward whichever was correct.
func (c *Combined) UpdateH(pc uint64, taken bool, hist uint64) {
	bp := c.bimodal.Predict(pc)
	gp := c.gshare.PredictH(pc, hist)
	i := (pc >> 2) & c.mask
	if gp == taken && bp != taken {
		c.chooser[i] = bump(c.chooser[i], true)
	} else if bp == taken && gp != taken {
		c.chooser[i] = bump(c.chooser[i], false)
	}
	c.bimodal.Update(pc, taken)
	c.gshare.UpdateH(pc, taken, hist)
}
