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

// The sanctioned consult point may read the map.
func consultProtection(m *protect.Map, elem int) protect.Protection {
	return m.Protection(elem)
}

// Campaign code goes through the consult point...
func runTrial(m *protect.Map, elem int) bool {
	return consultProtection(m, elem) == protect.Unprotected
}

// ...or asks the policy itself, which is not a compiled map read.
func absorbed(pol *protect.Policy, elem string) bool {
	return pol.ProtectionOf(elem) != protect.Unprotected
}

// Switches over other types stay out of scope.
func plain(x int) int {
	switch x {
	case 1:
		return 1
	}
	return 0
}

// The escape hatch still works for deliberate direct reads.
func surveyed(m *protect.Map) bool {
	return m.Protection(0) != protect.Unprotected //restorelint:ignore protectpolicy — reporting helper, not campaign logic
}
