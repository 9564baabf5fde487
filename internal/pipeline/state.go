// Package pipeline implements the detailed processor model of the paper's
// Section 4.1: a superscalar, dynamically scheduled, 12-stage pipeline in
// the class of the Alpha 21264 / AMD Athlon, with up to 132 instructions in
// flight, a 32-entry scheduler, a 64-entry reorder buffer, register renaming
// through speculative and architectural register alias tables, a store
// queue, sophisticated branch prediction with JRS confidence estimation, and
// a watchdog timer.
//
// It replaces the authors' latch-level Verilog model. What makes it usable
// for the paper's statistical fault-injection campaigns is its explicit
// state-element model: every latch and SRAM bit of the machine is registered
// in a StateSpace that the injector can enumerate, sample uniformly, and
// flip (Section 4.2's fault model), and that golden-run comparison can hash.
package pipeline

import "fmt"

// Kind distinguishes pipeline latches from SRAM arrays. The distinction
// drives the Section 5.1.2 latch-only campaign and the Section 5.2.2
// "low-hanging fruit" hardening, which protects SRAMs with ECC and control
// latches with parity.
type Kind uint8

// State element kinds.
const (
	// KindLatch is a pipeline latch or register: state that is rewritten
	// nearly every cycle as instructions flow past.
	KindLatch Kind = iota + 1
	// KindSRAM is an SRAM array cell: register file, alias tables, and
	// similar structures with decoded read/write ports.
	KindSRAM
)

// Class distinguishes control state from data values, which determines the
// protection scheme the hardened pipeline applies (parity on control words,
// ECC on data stores).
type Class uint8

// State element classes.
const (
	// ClassControl covers decoded instruction words, flags, pointers and
	// other bookkeeping.
	ClassControl Class = iota + 1
	// ClassData covers 64-bit data values: register contents, store
	// data, addresses in flight.
	ClassData
)

// Element is one injectable state word. Bits declares how many low-order
// bits of the word are real hardware state; flips and hashes are confined to
// that width.
type Element struct {
	Name  string
	Kind  Kind
	Class Class
	Bits  uint8

	word *uint64 // live word; for packed elements, bound into packed at seal
	off  int     // offset into the packed backing array, or -1 for scalars
}

// Mask returns the valid-bit mask for the element.
func (e *Element) Mask() uint64 {
	if e.Bits >= 64 {
		return ^uint64(0)
	}
	return (1 << e.Bits) - 1
}

// binding records one structure-field slice aliased onto the packed backing
// array, so the slice can be re-pointed whenever the backing grows during
// registration.
type binding struct {
	dst *[]uint64
	off int
	n   int
}

// extent is a run of packed words sharing one valid-bit mask; the hash walks
// extents instead of elements so the inner loop is a pure sequential sweep.
type extent struct {
	off, end int
	mask     uint64
}

// StateSpace is the registry of all injectable state in one pipeline
// instance.
//
// Array-shaped structures register in two phases: BindArray carves a
// contiguous run of words out of one packed backing array and aliases the
// structure's field slice onto it, then RegisterPacked declares each word's
// element metadata (in any order — element order is what campaigns sample
// over and must stay stable independently of packing). Scalar words register
// with Register as before. The space seals on first use (reindex); further
// registration panics, because handed-out Elements()/BitRefs would silently
// go stale.
type StateSpace struct {
	elems []Element

	packed   []uint64
	bindings []binding

	totalBits      uint64
	latchBits      uint64
	cumulativeBits []uint64 // prefix sums over elems, for uniform sampling
	dirty          bool
	sealed         bool

	extents    []extent // equal-mask runs over packed, built at seal
	stragglers []int    // element indices of scalar (non-packed) words
}

// Register adds a scalar state word. Words must stay valid for the lifetime
// of the space (they are fields of pipeline structures).
func (s *StateSpace) Register(name string, kind Kind, class Class, word *uint64, bits int) {
	if s.sealed {
		panic("pipeline: Register after StateSpace was sealed")
	}
	if bits <= 0 || bits > 64 {
		panic("pipeline: element width out of range")
	}
	s.elems = append(s.elems, Element{
		Name:  name,
		Kind:  kind,
		Class: class,
		Bits:  uint8(bits),
		word:  word,
		off:   -1,
	})
	s.dirty = true
}

// BindArray appends n words to the packed backing array, aliases *dst onto
// them, and returns the base offset for RegisterPacked calls. Because the
// backing may reallocate as it grows, every previously bound slice is
// re-pointed; after seal the backing is fixed and all bindings are final.
func (s *StateSpace) BindArray(dst *[]uint64, n int) int {
	if s.sealed {
		panic("pipeline: BindArray after StateSpace was sealed")
	}
	if n <= 0 {
		panic("pipeline: BindArray length out of range")
	}
	off := len(s.packed)
	s.packed = append(s.packed, make([]uint64, n)...)
	s.bindings = append(s.bindings, binding{dst: dst, off: off, n: n})
	for _, b := range s.bindings {
		*b.dst = s.packed[b.off : b.off+b.n : b.off+b.n]
	}
	return off
}

// RegisterPacked adds one word of a previously bound array as a state
// element. off is the BindArray base plus the index within the array.
func (s *StateSpace) RegisterPacked(name string, kind Kind, class Class, off, bits int) {
	if s.sealed {
		panic("pipeline: RegisterPacked after StateSpace was sealed")
	}
	if bits <= 0 || bits > 64 {
		panic("pipeline: element width out of range")
	}
	if off < 0 || off >= len(s.packed) {
		panic("pipeline: RegisterPacked offset outside packed backing")
	}
	s.elems = append(s.elems, Element{
		Name:  name,
		Kind:  kind,
		Class: class,
		Bits:  uint8(bits),
		off:   off,
	})
	s.dirty = true
}

// reindex builds the sampling prefix sums and, on first call, seals the
// space: packed element words are bound to their final addresses, the hash
// extents are coalesced, and all further registration panics.
func (s *StateSpace) reindex() {
	if !s.dirty {
		return
	}
	s.totalBits, s.latchBits = 0, 0
	s.cumulativeBits = make([]uint64, len(s.elems)+1)
	for i := range s.elems {
		s.cumulativeBits[i] = s.totalBits
		s.totalBits += uint64(s.elems[i].Bits)
		if s.elems[i].Kind == KindLatch {
			s.latchBits += uint64(s.elems[i].Bits)
		}
	}
	s.cumulativeBits[len(s.elems)] = s.totalBits
	s.dirty = false
	s.seal()
}

// seal freezes the space layout. Packed offsets become live word pointers
// (so Flip/Peek treat packed and scalar elements identically), runs of
// packed words with equal masks coalesce into hash extents, and scalar
// elements are listed for the hash tail walk.
func (s *StateSpace) seal() {
	if s.sealed {
		return
	}
	s.sealed = true

	masks := make([]uint64, len(s.packed))
	s.stragglers = s.stragglers[:0]
	for i := range s.elems {
		e := &s.elems[i]
		if e.off < 0 {
			s.stragglers = append(s.stragglers, i)
			continue
		}
		e.word = &s.packed[e.off]
		masks[e.off] = e.Mask()
	}
	s.extents = s.extents[:0]
	for off := 0; off < len(masks); {
		end := off + 1
		for end < len(masks) && masks[end] == masks[off] {
			end++
		}
		s.extents = append(s.extents, extent{off: off, end: end, mask: masks[off]})
		off = end
	}
}

// Elements returns the registered elements (shared slice; do not mutate).
func (s *StateSpace) Elements() []Element { return s.elems }

// TotalBits returns the number of injectable bits, optionally restricted to
// latches.
func (s *StateSpace) TotalBits(latchesOnly bool) uint64 {
	s.reindex()
	if latchesOnly {
		return s.latchBits
	}
	return s.totalBits
}

// BitRef identifies a single bit of a single element.
type BitRef struct {
	Elem int
	Bit  uint8
}

// NthBit maps a flat bit index in [0, TotalBits(false)) to a BitRef,
// enabling uniform sampling across all state.
func (s *StateSpace) NthBit(n uint64) (BitRef, bool) {
	s.reindex()
	if n >= s.totalBits {
		return BitRef{}, false
	}
	// Binary search the prefix sums.
	lo, hi := 0, len(s.elems)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cumulativeBits[mid+1] <= n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return BitRef{Elem: lo, Bit: uint8(n - s.cumulativeBits[lo])}, true
}

// checkRef validates a BitRef against the registered elements and their
// declared widths. A ref that escaped those bounds — a corrupted journal
// record, a hand-built ref — used to wrap silently (`Bit % 64`) and flip a
// bit outside declared hardware state that Hash then ignored, desyncing
// golden and faulty runs without a trace. Failing loudly is the fix.
func (s *StateSpace) checkRef(ref BitRef) *Element {
	if ref.Elem < 0 || ref.Elem >= len(s.elems) {
		panic(fmt.Sprintf("pipeline: BitRef element %d out of range [0,%d)", ref.Elem, len(s.elems)))
	}
	e := &s.elems[ref.Elem]
	if ref.Bit >= e.Bits {
		panic(fmt.Sprintf("pipeline: BitRef bit %d out of range for %q (%d bits)", ref.Bit, e.Name, e.Bits))
	}
	return e
}

// Flip inverts the referenced bit in place, returning the element affected.
// Out-of-range refs panic.
func (s *StateSpace) Flip(ref BitRef) *Element {
	s.reindex()
	e := s.checkRef(ref)
	*e.word ^= 1 << ref.Bit
	return e
}

// Peek reports the current value of the referenced bit. Out-of-range refs
// panic.
func (s *StateSpace) Peek(ref BitRef) bool {
	s.reindex()
	e := s.checkRef(ref)
	return *e.word&(1<<ref.Bit) != 0
}

// hashMul is the multiplicative constant of the polynomial digest (the
// golden-ratio prime, odd so multiplication is a bijection on uint64).
const hashMul = 0x9E3779B97F4A7C15

// Hash digests all registered state (masked to declared widths). Equal
// hashes on the same pipeline configuration mean — with overwhelming
// probability — equal microarchitectural state, which is how trials detect
// that an injected fault has been fully masked.
//
// The digest is a polynomial accumulator over the packed backing array,
// walked extent by extent (each extent shares one mask) with a single
// splitmix64 finalisation, plus a short tail over the scalar words. Only
// hash equality is meaningful.
func (s *StateSpace) Hash() uint64 {
	s.reindex()
	h := uint64(hashMul)
	for _, ex := range s.extents {
		m := ex.mask
		for _, w := range s.packed[ex.off:ex.end] {
			h = (h ^ (w & m)) * hashMul
		}
	}
	for _, i := range s.stragglers {
		e := &s.elems[i]
		h = (h ^ (*e.word & e.Mask())) * hashMul
	}
	return mix64(h)
}

// mix64 is the splitmix64 finaliser: full avalanche so that structured,
// mostly-zero pipeline state still hashes collision-resistantly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Snapshot copies all state words out; Restore writes them back. Used by
// golden-trace caching to rewind a pipeline to an injection point without
// re-running from the start. The packed backing copies wholesale; scalar
// words follow in element order.
func (s *StateSpace) Snapshot() []uint64 {
	s.reindex()
	out := make([]uint64, len(s.packed)+len(s.stragglers))
	copy(out, s.packed)
	for i, idx := range s.stragglers {
		out[len(s.packed)+i] = *s.elems[idx].word
	}
	return out
}

// Restore writes a snapshot produced by Snapshot back into the live words.
func (s *StateSpace) Restore(snap []uint64) {
	s.reindex()
	if len(snap) != len(s.packed)+len(s.stragglers) {
		panic("pipeline: snapshot size mismatch")
	}
	copy(s.packed, snap)
	for i, idx := range s.stragglers {
		*s.elems[idx].word = snap[len(s.packed)+i]
	}
}

// copyPackedFrom copies the packed backing words from an identically
// registered space — the ResetFrom/Clone fast path that replaces
// per-element pointer chasing with one memmove. Scalar words are the
// caller's responsibility (they live in structure fields the caller copies
// directly).
func (s *StateSpace) copyPackedFrom(src *StateSpace) {
	if len(s.packed) != len(src.packed) {
		panic("pipeline: packed state size mismatch")
	}
	copy(s.packed, src.packed)
}
