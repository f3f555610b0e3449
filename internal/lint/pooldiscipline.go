package lint

// Shared vocabulary for the memory-ownership analyzers (poolescape,
// scratchalias, handleliveness). PR 6 replaced hot-path allocation with
// hand-rolled freelists and scratch-reuse builders (DESIGN.md §5f); the
// soundness of that machinery rests on ownership rules these analyzers
// mechanize (DESIGN.md §5g). The tables below name the freelist entry
// points by their conventional identifiers — the same convention the real
// code uses (internal/pool) and that fixtures and future pools must follow
// for the analyzers to see them.
//
// All three analyzers reason positionally within one function body: a use
// "after" a put call means a larger source offset. That approximation is
// deliberate — it is exact for the straight-line release paths the pool
// actually has, and a branch-sensitive analysis would need an SSA layer the
// stdlib-only shim cannot carry. Where a function legitimately retains a
// checked-out value (the pool's own admission path), it declares ownership
// with a //lint:pool-owner marker in its doc comment rather than a
// per-line suppression: ownership is a property of the function's contract,
// not of one statement.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"concordia/internal/lint/analysis"
)

// poolGetters are the freelist checkout functions: their return value is a
// recycled object whose lifetime ends at the matching putter call.
var poolGetters = map[string]bool{
	"getDAG":     true,
	"acquireRun": true,
}

// poolPutters are the freelist release functions: their first argument (or
// the run reachable from it) re-enters a freelist and must not be touched
// afterwards.
var poolPutters = map[string]bool{
	"putDAG":       true,
	"putRun":       true,
	"maybeRecycle": true,
}

// ownerMarker declares a function the owner of the values it checks out: it
// may store them into long-lived structures because it is the component that
// manages their lifetime (the pool's admission path). The marker lives in
// the function's doc comment.
const ownerMarker = "lint:pool-owner"

// calleeName returns the bare name of a call's callee (p.getDAG → "getDAG",
// getDAG → "getDAG"), or "" for indirect calls.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// hasOwnerMarker reports whether fn's doc comment declares pool ownership.
func hasOwnerMarker(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, ownerMarker) {
			return true
		}
	}
	return false
}

// retainsMemory reports whether a value of type t can keep another object's
// backing memory alive: pointers, slices, maps, channels, funcs, interfaces,
// and aggregates containing any of those. Scalar copies (run.id, run.seq)
// cannot alias a recycled slab and are never flagged.
func retainsMemory(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if retainsMemory(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return retainsMemory(u.Elem())
	}
	return false
}

// aliasedOrigin reports which tracked origin object (if any) the expression
// e aliases: the object itself, its address, a field/element/slice of it, an
// append including it, or a composite literal embedding it.
func aliasedOrigin(pass *analysis.Pass, e ast.Expr, origins map[types.Object]bool) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := objOf(pass, x); obj != nil && origins[obj] {
			return obj
		}
	case *ast.ParenExpr:
		return aliasedOrigin(pass, x.X, origins)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return aliasedOrigin(pass, x.X, origins)
		}
	case *ast.StarExpr:
		return aliasedOrigin(pass, x.X, origins)
	case *ast.SelectorExpr:
		return aliasedOrigin(pass, x.X, origins)
	case *ast.IndexExpr:
		return aliasedOrigin(pass, x.X, origins)
	case *ast.SliceExpr:
		return aliasedOrigin(pass, x.X, origins)
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" {
				for _, a := range x.Args {
					if o := aliasedOrigin(pass, a, origins); o != nil {
						return o
					}
				}
			}
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if o := aliasedOrigin(pass, el, origins); o != nil {
				return o
			}
		}
	}
	return nil
}

// storeEscapes classifies an assignment's lvalue: does writing to it let the
// value outlive fn's activation? A plain local variable does not. A
// package-level variable does. A field or element reached from a non-local
// root, or through a local pointer/map (memory someone else can also reach),
// does. exempt names an object whose stores are sanctioned — scratchalias
// passes the method receiver so the store-back idiom (c.scratch = out) stays
// legal. The returned description names the escape route for the
// diagnostic.
func storeEscapes(pass *analysis.Pass, fn *ast.FuncDecl, lhs ast.Expr, exempt types.Object) (bool, string) {
	root := lvalueRoot(lhs)
	if root == nil {
		return false, ""
	}
	obj := objOf(pass, root)
	if obj == nil || obj == exempt {
		return false, ""
	}
	if _, plain := lhs.(*ast.Ident); plain {
		if !declaredWithin(obj, fn) {
			return true, fmt.Sprintf("package-level variable %s", obj.Name())
		}
		return false, ""
	}
	if !declaredWithin(obj, fn) {
		return true, fmt.Sprintf("%s, which outlives this call", obj.Name())
	}
	switch obj.Type().Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan:
		return true, fmt.Sprintf("memory reachable through %s", obj.Name())
	}
	return false, ""
}

// exprKey renders a canonical spelling for a scratch-buffer argument so two
// builder calls on the same buffer can be recognized (buf, buf[:n] →
// "buf", &c.dec[i] → "c.dec[i]"). Unrenderable expressions and nil key
// as "", meaning "not trackable".
func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == "nil" {
			return ""
		}
		return x.Name
	case *ast.SelectorExpr:
		base := exprKey(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.IndexExpr:
		base, idx := exprKey(x.X), exprKey(x.Index)
		if base == "" || idx == "" {
			return ""
		}
		return base + "[" + idx + "]"
	case *ast.SliceExpr:
		return exprKey(x.X)
	case *ast.ParenExpr:
		return exprKey(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return exprKey(x.X)
		}
	case *ast.BasicLit:
		return x.Value
	}
	return ""
}
