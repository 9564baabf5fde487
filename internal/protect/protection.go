package protect

import (
	"fmt"

	"repro/internal/pipeline"
)

// Protection is the domain of one state element.
type Protection uint8

// Protection domains.
const (
	// Unprotected elements take faults at face value.
	Unprotected Protection = iota
	// Parity detects single-bit flips on read; recovery is a pipeline
	// flush (the corrupt in-flight state is discarded and refetched).
	Parity
	// ECC corrects single-bit flips on read.
	ECC
)

// String names the protection domain.
func (p Protection) String() string {
	switch p {
	case Parity:
		return "parity"
	case ECC:
		return "ecc"
	case Unprotected:
		return "unprotected"
	}
	return fmt.Sprintf("Protection(%d)", uint8(p))
}

// Map assigns a protection domain to every element of one state space. It
// is what Policy.Compile produces and what the injection campaigns consult.
type Map struct {
	prot []Protection
}

// Protection returns the domain of element index i.
func (m *Map) Protection(i int) Protection {
	if i < 0 || i >= len(m.prot) {
		return Unprotected
	}
	return m.prot[i]
}

// Stats summarises a protection map over its state space. The JSON names
// are part of every µarch campaign manifest.
type Stats struct {
	TotalBits    uint64 `json:"total_bits"`
	ECCBits      uint64 `json:"ecc_bits"`
	ParityBits   uint64 `json:"parity_bits"`
	OverheadBits uint64 `json:"overhead_bits"` // extra check bits the protection costs
}

// CoveredFraction returns the fraction of state bits under any protection.
func (s Stats) CoveredFraction() float64 {
	if s.TotalBits == 0 {
		return 0
	}
	return float64(s.ECCBits+s.ParityBits) / float64(s.TotalBits)
}

// OverheadFraction returns check bits relative to total state, the paper's
// "approximately 7% additional state in the execution core".
func (s Stats) OverheadFraction() float64 {
	if s.TotalBits == 0 {
		return 0
	}
	return float64(s.OverheadBits) / float64(s.TotalBits)
}

// Survey computes coverage and overhead statistics for the map over its
// space. Overhead: parity costs 1 check bit per protected word; ECC costs
// SEC-DED width (⌈log2 n⌉ + 2) per protected word.
func Survey(space *pipeline.StateSpace, m *Map) Stats {
	var s Stats
	for i, e := range space.Elements() {
		bits := uint64(e.Bits)
		s.TotalBits += bits
		switch m.Protection(i) {
		case ECC:
			s.ECCBits += bits
			s.OverheadBits += SECDEDBits(bits)
		case Parity:
			s.ParityBits += bits
			s.OverheadBits++
		case Unprotected:
		}
	}
	return s
}

// ProtectionCost returns the check-bit overhead of protecting one word of
// the given width: 1 for parity, SEC-DED width for ECC, 0 otherwise.
func ProtectionCost(p Protection, dataBits uint64) uint64 {
	switch p {
	case Parity:
		return 1
	case ECC:
		return SECDEDBits(dataBits)
	case Unprotected:
	}
	return 0
}

// SECDEDBits returns the check-bit count of a single-error-correcting,
// double-error-detecting Hamming code over dataBits data bits.
func SECDEDBits(dataBits uint64) uint64 {
	check := uint64(0)
	for (uint64(1) << check) < dataBits+check+1 {
		check++
	}
	return check + 1 // +1 for double-error detection
}
