package predictor

// CopyFrom support: fault-injection campaigns fork a warmed-up pipeline once
// per trial, so every predictor must be copyable. A fork is a fresh value
// (or a retired one from the campaign's clone pool) re-imaged by CopyFrom.
// Each CopyFrom reuses the receiver's tables when the geometries match and
// grows them when the receiver is fresh.

// CopyFrom makes b an exact copy of src, reusing b's table.
func (b *Bimodal) CopyFrom(src *Bimodal) {
	b.mask = src.mask
	//restorelint:allowalloc -- fresh receiver only; the clone pool re-images identically-shaped predictors
	b.table = append(b.table[:0], src.table...)
}

// CopyFrom makes g an exact copy of src, reusing g's table.
func (g *Gshare) CopyFrom(src *Gshare) {
	g.mask = src.mask
	//restorelint:allowalloc -- fresh receiver only; the clone pool re-images identically-shaped predictors
	g.table = append(g.table[:0], src.table...)
}

// CopyFrom makes c an exact copy of src, reusing c's tables.
func (c *Combined) CopyFrom(src *Combined) {
	c.mask = src.mask
	if c.bimodal == nil {
		//restorelint:allowalloc -- fresh receiver only; the clone pool re-images identically-shaped predictors
		c.bimodal, c.gshare = new(Bimodal), new(Gshare)
	}
	c.bimodal.CopyFrom(src.bimodal)
	c.gshare.CopyFrom(src.gshare)
	//restorelint:allowalloc -- fresh receiver only; the clone pool re-images identically-shaped predictors
	c.chooser = append(c.chooser[:0], src.chooser...)
}

// CopyFrom makes b an exact copy of src, reusing b's entry array.
func (b *BTB) CopyFrom(src *BTB) {
	b.ways = src.ways
	b.sets = src.sets
	//restorelint:allowalloc -- fresh receiver only; the clone pool re-images identically-shaped predictors
	b.entries = append(b.entries[:0], src.entries...)
}

// CopyFrom makes r an exact copy of src, reusing r's stack.
func (r *RAS) CopyFrom(src *RAS) {
	r.top = src.top
	r.depth = src.depth
	//restorelint:allowalloc -- fresh receiver only; the clone pool re-images identically-shaped predictors
	r.stack = append(r.stack[:0], src.stack...)
}

// CopyFrom makes j an exact copy of src, reusing j's table.
func (j *JRS) CopyFrom(src *JRS) {
	j.mask = src.mask
	j.max = src.max
	j.threshold = src.threshold
	//restorelint:allowalloc -- fresh receiver only; the clone pool re-images identically-shaped predictors
	j.table = append(j.table[:0], src.table...)
}

// CopyFrom makes m an exact copy of src, reusing m's table.
func (m *MemDep) CopyFrom(src *MemDep) {
	m.mask = src.mask
	//restorelint:allowalloc -- fresh receiver only; the clone pool re-images identically-shaped predictors
	m.table = append(m.table[:0], src.table...)
}
