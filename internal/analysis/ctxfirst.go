package analysis

import (
	"fmt"
	"go/ast"
)

// CtxFirstRule enforces the context-first API shape PR 4 established
// for the simulation entry points: exported functions in internal/sim
// and internal/engine that launch work are cancellable from the
// caller, with the context as the first parameter. Three checks, on
// exported package-level functions (methods are exempt — sink and
// policy callbacks implement fixed interfaces):
//
//   - a context.Context parameter, when present, must be parameter 0;
//   - a function that launches goroutines must take a context.Context;
//   - context.Background()/context.TODO() inside an exported function
//     severs the caller's cancellation chain — thread the caller's
//     context instead.
type CtxFirstRule struct{}

// ctxScopes are the packages whose exported functions launch
// simulation work.
var ctxScopes = []string{
	"internal/sim",
	"internal/engine",
}

// Name implements Rule.
func (*CtxFirstRule) Name() string { return "ctx-first" }

// Doc implements Rule.
func (*CtxFirstRule) Doc() string {
	return "exported work-launching funcs in internal/sim and internal/engine take context.Context first"
}

// Check implements Rule.
func (r *CtxFirstRule) Check(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, p := range m.Pkgs {
		if !inScope(p.Path, ctxScopes) {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() {
					continue
				}
				out = append(out, r.checkFunc(m, p, fd)...)
			}
		}
	}
	return out
}

// checkFunc applies the three ctx-first checks to one exported
// function declaration.
func (r *CtxFirstRule) checkFunc(m *Module, p *Package, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	name := fd.Name.Name

	ctxAt := -1
	idx := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if t := p.Info.Types[field.Type].Type; t != nil && isContextType(t) && ctxAt < 0 {
			ctxAt = idx
		}
		idx += n
	}
	if ctxAt > 0 {
		out = append(out, Diagnostic{
			Pos:     m.Fset.Position(fd.Pos()),
			Rule:    r.Name(),
			Message: fmt.Sprintf("%s takes context.Context as parameter %d; it must be first", name, ctxAt),
		})
	}

	if fd.Body == nil {
		return out
	}
	launches := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			launches = true
		case *ast.CallExpr:
			fn := calleeFunc(p.Info, n)
			if fn == nil || pkgPathOf(fn) != "context" {
				return true
			}
			if fnName := fn.Name(); fnName == "Background" || fnName == "TODO" {
				out = append(out, Diagnostic{
					Pos:     m.Fset.Position(n.Pos()),
					Rule:    r.Name(),
					Message: fmt.Sprintf("context.%s inside exported %s severs the caller's cancellation chain; thread a ctx parameter instead", fnName, name),
				})
			}
		}
		return true
	})
	if launches && ctxAt != 0 {
		out = append(out, Diagnostic{
			Pos:     m.Fset.Position(fd.Pos()),
			Rule:    r.Name(),
			Message: fmt.Sprintf("%s launches goroutines but does not take a context.Context first parameter", name),
		})
	}
	return out
}
