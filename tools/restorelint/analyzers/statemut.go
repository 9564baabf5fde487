package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/tools/restorelint/lint"
)

// StateMut confines writes to registered machine state. Every uint64 word a
// register() method hands to StateSpace.Register is hardware state that
// fault-injection campaigns enumerate, flip, hash, and snapshot; an
// unaudited write path is a simulator bug factory (state changing outside
// the cycle loop breaks golden-run comparison) and an injection blind spot.
//
// A write to a registered field is allowed only in:
//
//   - a method of the struct that declares the field (the structure's own
//     queue/alloc/reset discipline), or
//   - a function named in a `//restorelint:writers f g h` directive on the
//     declaring struct — the ownership matrix of pipeline stages that are
//     entitled to drive those latches, or
//   - the StateSpace injection API itself, which reaches the words through
//     registered pointers rather than selectors and is therefore out of
//     scope by construction.
//
// Taking a registered field's address outside those owners is flagged too:
// a leaked pointer is an invisible write path.
//
// A field marked `//restorelint:private` is stricter: any use of it at all,
// read or write, is allowed only in a method of the struct that declares it,
// and writer directives do not extend that. The fields of the pipeline's
// access units (register values and ready bits, execution-window slots,
// scheduler operand fields) are private so that every access goes through
// the accessors that mark it: the µarch campaign resolves a trial without
// simulating it when the golden run never touches the flipped unit, and an
// unmarked access would make that wrong.
var StateMut = &lint.Analyzer{
	Name: "statemut",
	Doc:  "flags writes to StateSpace-registered fields outside the owning struct or its declared writers, and any use of a private field outside its struct's methods",
	Run:  runStateMut,
}

func runStateMut(pass *lint.Pass) {
	checkPrivateFields(pass)
	idx := buildStateIndex(pass.Pkg)
	if len(idx.registered) == 0 {
		return
	}
	writers := collectWriterDirectives(pass.Pkg)

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true // fresh locals never alias registered words
				}
				for _, lhs := range n.Lhs {
					checkStateWrite(pass, idx, writers, lhs)
				}
			case *ast.IncDecStmt:
				checkStateWrite(pass, idx, writers, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					checkStateAddr(pass, idx, writers, n)
				}
			}
			return true
		})
	}
}

// checkStateWrite resolves one assignment target and reports it when it hits
// registered state from outside the owners.
func checkStateWrite(pass *lint.Pass, idx *stateIndex, writers map[string]map[string]bool, lhs ast.Expr) {
	info := pass.Pkg.Info

	// Field-level write: p.rob.flags[i] = v, p.fetchPC = v, ...
	if v := fieldVarOf(info, lhs); v != nil && idx.registered[v] {
		owner := idx.fieldOwner[v]
		if !allowedWriter(pass, writers, owner, lhs.Pos()) {
			reportStateWrite(pass, lhs.Pos(), owner, v.Name(), writers[owner])
		}
		return
	}

	// Whole-struct write through a field or pointer: p.free = zero,
	// *q = fetchQueue{}. Every registered word of the struct is rewritten.
	target := lhs
	if star, ok := target.(*ast.StarExpr); ok {
		target = star.X
	}
	if _, isSel := lhs.(*ast.SelectorExpr); !isSel {
		if _, isStar := lhs.(*ast.StarExpr); !isStar {
			return
		}
	}
	tv, ok := info.Types[target]
	if !ok {
		return
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	name := named.Obj().Name()
	if idx.hasState[name] && !allowedWriter(pass, writers, name, lhs.Pos()) {
		reportStateWrite(pass, lhs.Pos(), name, "(entire struct)", writers[name])
	}
}

// checkStateAddr flags address-of escapes of registered fields outside the
// owners (Register calls themselves live inside owner methods).
func checkStateAddr(pass *lint.Pass, idx *stateIndex, writers map[string]map[string]bool, un *ast.UnaryExpr) {
	v := fieldVarOf(pass.Pkg.Info, un.X)
	if v == nil || !idx.registered[v] {
		return
	}
	owner := idx.fieldOwner[v]
	if !allowedWriter(pass, writers, owner, un.Pos()) {
		pass.Reportf(un.Pos(),
			"address of registered state field %s.%s escapes outside its owners; a leaked pointer bypasses the StateSpace write discipline",
			owner, v.Name())
	}
}

func allowedWriter(pass *lint.Pass, writers map[string]map[string]bool, owner string, pos token.Pos) bool {
	fd := pass.Pkg.EnclosingFunc(pos)
	if fd == nil {
		return false
	}
	if recvTypeName(fd) == owner {
		return true
	}
	return writers[owner][fd.Name.Name]
}

func reportStateWrite(pass *lint.Pass, pos token.Pos, owner, field string, allowed map[string]bool) {
	var names []string
	for n := range allowed {
		names = append(names, n)
	}
	sort.Strings(names)
	hint := "none declared"
	if len(names) > 0 {
		hint = strings.Join(names, ", ")
	}
	pass.Reportf(pos,
		"write to registered state %s.%s outside its owners (allowed writers: %s); route it through a %s method or declare it with //restorelint:writers on %s",
		owner, field, hint, owner, owner)
}

// collectWriterDirectives parses `//restorelint:writers a b c` directives
// from struct type declarations: type name -> allowed function names.
func collectWriterDirectives(pkg *lint.Package) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	record := func(name string, doc *ast.CommentGroup) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			rest, ok := strings.CutPrefix(strings.TrimPrefix(c.Text, "//"), "restorelint:writers")
			if !ok {
				continue
			}
			if out[name] == nil {
				out[name] = make(map[string]bool)
			}
			for _, fn := range strings.Fields(rest) {
				out[name][fn] = true
			}
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				record(ts.Name.Name, ts.Doc)
				record(ts.Name.Name, gd.Doc)
			}
		}
	}
	return out
}

// checkPrivateFields reports every use of a //restorelint:private field
// outside the methods of the struct that declares it.
func checkPrivateFields(pass *lint.Pass) {
	info := pass.Pkg.Info
	private := make(map[*types.Var]string) // field -> declaring type name
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					if !hasDirective(field.Doc, "restorelint:private") && !hasDirective(field.Comment, "restorelint:private") {
						continue
					}
					for _, name := range field.Names {
						if v, ok := info.Defs[name].(*types.Var); ok {
							private[v] = ts.Name.Name
						}
					}
				}
			}
			return false
		})
	}
	if len(private) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok {
				return true
			}
			owner, ok := private[v]
			if !ok || recvTypeName(pass.Pkg.EnclosingFunc(sel.Pos())) == owner {
				return true
			}
			pass.Reportf(sel.Sel.Pos(),
				"use of private field %s.%s outside %s's methods; read and write it through a %s method",
				owner, v.Name(), owner, owner)
			return true
		})
	}
}

// hasDirective reports whether a comment group holds a //name directive.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), name) {
			return true
		}
	}
	return false
}
