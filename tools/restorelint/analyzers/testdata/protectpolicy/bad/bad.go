// Package fixture exercises the protectpolicy diagnostics.
package fixture

import "repro/internal/protect"

// Missing ECC: adding a protection domain must not fall through silently.
func costOf(p protect.Protection) int {
	switch p { // want "switch over protect.Protection misses ECC"
	case protect.Unprotected:
		return 0
	case protect.Parity:
		return 1
	}
	return 0
}

// Missing KindStaticBudget.
func describe(k protect.Kind) string {
	switch k { // want "switch over protect.Kind misses KindStaticBudget"
	case protect.KindNone:
		return "baseline"
	case protect.KindHandPicked:
		return "manual"
	}
	return ""
}
