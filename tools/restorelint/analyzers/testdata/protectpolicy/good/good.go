// Package fixture holds protection-policy usage the analyzer must accept.
package fixture

import "repro/internal/protect"

// Exhaustive coverage of every protection domain.
func overhead(p protect.Protection) int {
	switch p {
	case protect.Unprotected:
		return 0
	case protect.Parity:
		return 1
	case protect.ECC:
		return 8
	}
	return 0
}

// An explicit default acknowledges partial coverage.
func isDerived(k protect.Kind) bool {
	switch k {
	case protect.KindStaticBudget:
		return true
	default:
		return false
	}
}

// Switches over other types stay out of scope.
func plain(x int) int {
	switch x {
	case 1:
		return 1
	}
	return 0
}
