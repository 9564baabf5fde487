package fixture

// regs keeps its values private: every access goes through its methods.
type regs struct {
	val   []uint64 //restorelint:private
	ready []uint64
}

func (r *regs) read(i int) uint64 { return r.val[i] }

type core struct {
	r regs
}

// peek reads the private array directly.
func peek(c *core, i int) uint64 {
	return c.r.val[i] // want "use of private field regs.val outside regs's methods"
}

// poke writes it directly.
func poke(c *core, i int, v uint64) {
	c.r.val[i] = v // want "use of private field regs.val outside regs's methods"
}

// A method of another type is no owner either.
func (c *core) sum() (s uint64) {
	for _, v := range c.r.val { // want "use of private field regs.val outside regs's methods"
		s += v
	}
	return s
}

// Other fields of the struct carry no restriction.
func ready(c *core, i int) uint64 { return c.r.ready[i] }
