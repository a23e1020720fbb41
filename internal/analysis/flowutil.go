// Shared helpers for the dataflow rules: enumerating function bodies,
// naming mutex/waitgroup receivers, and AST walks that respect
// function-literal boundaries.
package analysis

import (
	"go/ast"
	"go/types"
)

// funcBody is one analyzable body — a declaration or a function
// literal — with its package.
type funcBody struct {
	pkg  *Package
	name string        // display name for diagnostics
	decl *ast.FuncDecl // nil for literals
	body *ast.BlockStmt
}

// moduleFuncBodies enumerates every function body in the module:
// declarations first, then the function literals nested in them (each
// literal is its own intraprocedural analysis unit).
func moduleFuncBodies(m *Module) []funcBody {
	var out []funcBody
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, funcBody{pkg: p, name: funcDisplayName(fd), decl: fd, body: fd.Body})
				name := funcDisplayName(fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						out = append(out, funcBody{pkg: p, name: name + ".func", body: lit.Body})
					}
					return true
				})
			}
		}
	}
	return out
}

// objKey identifies a mutex, waitgroup, or tracked variable by its
// root object plus the selector path used to reach it — `s.derivedMu`
// and `s.derivedMu` in the same function agree; distinct receivers
// differ by root object identity.
type objKey struct {
	root types.Object
	path string
}

// flattenKey resolves an ident/selector chain to an objKey. The
// second result is false for expressions the rules cannot name
// (index expressions, call results, …).
func flattenKey(info *types.Info, e ast.Expr) (objKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return objKey{}, false
		}
		return objKey{root: obj, path: e.Name}, true
	case *ast.SelectorExpr:
		k, ok := flattenKey(info, e.X)
		if !ok {
			return objKey{}, false
		}
		k.path += "." + e.Sel.Name
		return k, true
	case *ast.StarExpr:
		return flattenKey(info, e.X)
	}
	return objKey{}, false
}

// inspectNode walks one CFG node's subtree, skipping nested function
// literals (they are separate analysis units with their own CFGs).
// The callback's return value is honored as in ast.Inspect.
func inspectNode(n ast.Node, fn func(ast.Node) bool) {
	if _, ok := n.(*implicitReturn); ok {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// syncMethod reports whether call invokes the named method on the
// given sync type ("Mutex", "RWMutex", "WaitGroup", …) and returns
// the receiver expression.
func syncMethod(info *types.Info, call *ast.CallExpr, typeNames ...string) (recv ast.Expr, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || pkgPathOf(fn) != "sync" {
		return nil, "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return nil, "", false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return nil, "", false
	}
	for _, want := range typeNames {
		if named.Obj().Name() == want {
			return sel.X, fn.Name(), true
		}
	}
	return nil, "", false
}

// usesObject reports whether any identifier in the subtree (function
// literals included) resolves to one of the given objects.
func usesObject(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}
