package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"repro/tools/restorelint/lint"
)

// ProtectPolicy guards the protection-policy enumerations: switches over
// protect.Protection or protect.Kind must be exhaustive or carry an explicit
// default — adding a protection domain (say, DMR) or a policy kind must not
// silently fall through cost models, serializers, or classifiers.
var ProtectPolicy = &lint.Analyzer{
	Name: "protectpolicy",
	Doc:  "enforces exhaustive protection-domain and policy-kind switches",
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
			if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil {
				checkProtSwitch(pass, sw)
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
