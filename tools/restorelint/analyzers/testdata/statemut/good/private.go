package fixture

// regs keeps its values private: every access goes through its methods.
type regs struct {
	// val is reached only through read and write.
	//restorelint:private
	val []uint64
}

func (r *regs) read(i int) uint64 { return r.val[i] }
func (r *regs) write(i int, v uint64) {
	r.val[i] = v
}

type core struct {
	r regs
}

// Code outside regs uses the accessors.
func copyReg(c *core, dst, src int) {
	c.r.write(dst, c.r.read(src))
}

// The escape hatch works for deliberate, justified exceptions.
func dump(c *core) []uint64 {
	return c.r.val //restorelint:ignore statemut -- test harness back door, not simulator code
}
