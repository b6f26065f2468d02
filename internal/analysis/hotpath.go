package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotpathDirective is the annotation that opts a function into the
// alloc-risk checks (and into scripts/escapecheck.sh's escape-analysis
// pass): a comment line `//kd:hotpath` in the function's doc comment.
const HotpathDirective = "//kd:hotpath"

// Hotpath checks every function annotated //kd:hotpath for constructs
// that allocate (or force the escape analyzer's hand) on the per-round /
// per-bin path the annotation marks:
//
//   - function literals (closure environments are heap-allocated once a
//     capture escapes, and the capture analysis is fragile under inlining);
//   - defer and go statements (defer records and goroutine stacks);
//   - make/new calls and slice/map composite literals (a fresh allocation
//     per call; hot-path buffers live on the Process and are resliced);
//   - append into a slice that is not visibly preallocated — the first
//     argument must be a reslice (buf[:0]), a variable initialized from a
//     reslice, or a parameter, so steady-state appends reuse capacity;
//   - implicit concrete-to-interface conversions at calls, assignments,
//     and returns (the boxed value escapes; this is exactly the dispatch
//     cost the PR 5 kernel specialization removed).
//
// The analyzer is the static half of the alloc-free guarantee; the
// runtime half is the 0 allocs/round benchmark assertions, and
// scripts/escapecheck.sh closes the gap with the compiler's own escape
// verdicts over the same annotated set.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid alloc-risk constructs in functions annotated //kd:hotpath",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !IsHotAnnotated(fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

// IsHotAnnotated reports whether the function's doc comment carries the
// //kd:hotpath directive. Exported for cmd/kdlint's -hot listing mode.
func IsHotAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == HotpathDirective || strings.HasPrefix(c.Text, HotpathDirective+" ") {
			return true
		}
	}
	return false
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	presized := presizedSlices(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hot path %s: captured variables escape to the heap", fd.Name.Name)
			return false // don't double-report the literal's own body
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hot path %s allocates a defer record per call", fd.Name.Name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine launch in hot path %s", fd.Name.Name)
		case *ast.CompositeLit:
			t := pass.Info.Types[n].Type
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "%s literal allocates in hot path %s; hoist the buffer to init/setup", typeKindName(t), fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, n, presized)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for i := range n.Lhs {
					if i < len(n.Rhs) {
						checkIfaceConvert(pass, fd, pass.Info.Types[n.Lhs[i]].Type, n.Rhs[i])
					}
				}
			}
		case *ast.ReturnStmt:
			sig, _ := pass.Info.Defs[fd.Name].Type().(*types.Signature)
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, res := range n.Results {
					checkIfaceConvert(pass, fd, sig.Results().At(i).Type(), res)
				}
			}
		}
		return true
	})
}

func typeKindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

// checkHotCall flags make/new, non-preallocated appends, and implicit
// interface conversions of the call's arguments.
func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, presized map[types.Object]bool) {
	// Builtins and conversions first.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				pass.Reportf(call.Pos(), "%s allocates in hot path %s; hoist the buffer to init/setup", id.Name, fd.Name.Name)
			case "append":
				if len(call.Args) > 0 && !isPresizedAppendTarget(pass, call.Args[0], presized) {
					pass.Reportf(call.Pos(), "append into a non-preallocated slice in hot path %s; reslice a process-owned buffer (buf[:0]) instead", fd.Name.Name)
				}
			}
			return
		}
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsType() {
		// Explicit conversion T(x): flag when T is an interface.
		if isInterface(tv.Type) && len(call.Args) == 1 {
			checkIfaceConvert(pass, fd, tv.Type, call.Args[0])
		}
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing an existing slice through: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkIfaceConvert(pass, fd, pt, arg)
	}
}

// checkIfaceConvert reports arg when assigning it to a destination of
// interface type boxes a concrete value (allocating the interface data
// word). nil and values already of interface type convert for free.
func checkIfaceConvert(pass *Pass, fd *ast.FuncDecl, dst types.Type, arg ast.Expr) {
	if dst == nil {
		return
	}
	if !isInterface(dst) {
		return
	}
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() {
		return
	}
	if isInterface(tv.Type) {
		return
	}
	// Untyped constants assigned to interfaces still box, but a typed
	// check reads better in the message.
	pass.Reportf(arg.Pos(), "implicit conversion of %s to interface %s in hot path %s boxes the value on the heap", tv.Type, dst, fd.Name.Name)
}

// isInterface reports whether a value of type t can be an interface value.
// A type parameter's underlying type is its constraint, which is always an
// interface, so a type parameter counts as one only when its type set can
// hold an interface: a constraint such as ~uint8 | ~uint16 makes every
// value a plain integer (converting to it boxes nothing, and passing it to
// an interface boxes), while any or a method-only constraint admits
// interface type arguments.
func isInterface(t types.Type) bool {
	if tp, ok := t.(*types.TypeParam); ok {
		return typeSetHoldsInterface(tp.Constraint())
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// typeSetHoldsInterface reports whether the type set of constraint element
// t contains an interface type: t is an interface whose every embedded
// element holds one (so one with no type terms does), or a union with a
// term that does.
func typeSetHoldsInterface(t types.Type) bool {
	if u, ok := t.(*types.Union); ok {
		for i := 0; i < u.Len(); i++ {
			if typeSetHoldsInterface(u.Term(i).Type()) {
				return true
			}
		}
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		if !typeSetHoldsInterface(iface.EmbeddedType(i)) {
			return false
		}
	}
	return true
}

// presizedSlices collects the variables an append may safely target: the
// function's parameters (the caller owns their capacity) and every local
// slice whose initializer is visibly capacity-reusing — a reslice
// expression like buf[:0] or buf[:n] (typically of a Process-owned
// scratch field).
func presizedSlices(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	set := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				set[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if _, isSlice := unparen(as.Rhs[i]).(*ast.SliceExpr); !isSlice {
				continue
			}
			if obj := pass.Info.Defs[id]; obj != nil {
				set[obj] = true
			}
		}
		return true
	})
	return set
}

// isPresizedAppendTarget reports whether the append target visibly reuses
// existing capacity: a direct reslice expression, or a variable in the
// presized set (parameter or reslice-initialized local).
func isPresizedAppendTarget(pass *Pass, target ast.Expr, presized map[types.Object]bool) bool {
	switch t := unparen(target).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		obj := pass.Info.Uses[t]
		if obj == nil {
			obj = pass.Info.Defs[t]
		}
		return obj != nil && presized[obj]
	}
	return false
}
