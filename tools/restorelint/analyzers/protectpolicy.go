package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"repro/tools/restorelint/lint"
)

// ProtectPolicy guards the protection-policy abstraction two ways.
//
// First, switches over protect.Protection or protect.Kind must be exhaustive
// or carry an explicit default — adding a protection domain (say, DMR) or a
// policy kind must not silently fall through cost models, serializers, or
// classifiers.
//
// Second, campaign code must consult a compiled protection map only through
// the sanctioned consult point (a function named consultProtection): the
// fault-model semantics of a protected hit — corrected in place vs detected
// and flushed — live in one reviewed place, and a stray map read scattered
// through an engine is where a policy-vs-scheme divergence would hide.
var ProtectPolicy = &lint.Analyzer{
	Name: "protectpolicy",
	Doc:  "enforces exhaustive protection-domain switches and the single protection-map consult point",
	Run:  runProtectPolicy,
}

// protEnum matches the two protection-policy enumeration types.
func protEnum(t types.Type) (qualified string, obj *types.TypeName, ok bool) {
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", nil, false
	}
	o := named.Obj()
	if o.Pkg() == nil {
		return "", nil, false
	}
	if o.Pkg().Name() == "protect" && (o.Name() == "Protection" || o.Name() == "Kind") {
		return "protect." + o.Name(), o, true
	}
	return "", nil, false
}

func runProtectPolicy(pass *lint.Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.SwitchStmt:
				if node.Tag != nil {
					checkProtSwitch(pass, node)
				}
			case *ast.CallExpr:
				checkMapConsult(pass, node)
			}
			return true
		})
	}
}

// checkProtSwitch mirrors opcodeswitch for the policy enumerations: every
// exported constant of the switched type must be covered, or the switch must
// declare a default.
func checkProtSwitch(pass *lint.Pass, sw *ast.SwitchStmt) {
	info := pass.Pkg.Info
	tv, ok := info.Types[sw.Tag]
	if !ok {
		return
	}
	qual, obj, ok := protEnum(tv.Type)
	if !ok {
		return
	}

	covered := make(map[uint64]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default: partial coverage is acknowledged
		}
		for _, e := range cc.List {
			etv, ok := info.Types[e]
			if !ok || etv.Value == nil {
				return // non-constant case: treated as a wildcard
			}
			if v, exact := constant.Uint64Val(constant.ToInt(etv.Value)); exact {
				covered[v] = true
			}
		}
	}

	var missing []string
	scope := obj.Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() || !types.Identical(c.Type(), tv.Type) {
			continue
		}
		v, exact := constant.Uint64Val(constant.ToInt(c.Val()))
		if exact && !covered[v] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Pos(),
		"switch over %s misses %s and has no default case; cover them or add an explicit default",
		qual, strings.Join(missing, ", "))
}

// checkMapConsult flags Protection method calls on a protect.Map receiver
// outside the protect package itself and outside a function named
// consultProtection.
func checkMapConsult(pass *lint.Pass, call *ast.CallExpr) {
	if pass.Pkg.Types != nil && pass.Pkg.Types.Name() == "protect" {
		return // the map's own package may read it freely
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Protection" {
		return
	}
	recv, ok := pass.Pkg.Info.Types[sel.X]
	if !ok {
		return
	}
	t := recv.Type
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Name() != "Map" || obj.Pkg() == nil || obj.Pkg().Name() != "protect" {
		return
	}
	if fd := pass.Pkg.EnclosingFunc(call.Pos()); fd != nil && fd.Name.Name == "consultProtection" {
		return
	}
	pass.Reportf(call.Pos(),
		"protect.Map.Protection read outside consultProtection; campaign code must consult protection maps through the sanctioned consult point")
}
