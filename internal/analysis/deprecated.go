package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// DeprecatedRule replaces the CI grep gate that banned the pre-engine
// suite entry points in cmd/ and examples/ (since deleted): any
// reference to a deprecated function from outside its own definition
// and its allowed packages, anywhere in the module, is an error.
// Unlike the grep it is not fooled by aliasing, wrapping, or taking the
// function's value instead of calling it — and it covers every
// package, not just the reference callers.
type DeprecatedRule struct{}

// deprecatedFunc names one banned function and its replacement.
// allowPkgs, when non-empty, lists module-relative package scopes (per
// inScope, subpackages included) that may still reference the function
// — the compat shim that owns it.
type deprecatedFunc struct {
	pkgSuffix string // module-relative defining package ("internal/workloads")
	name      string
	instead   string
	allowPkgs []string
}

// deprecatedFuncs is the ban list. NewGenerator is not going away, but
// direct construction bypasses the redesigned workloads API
// (Workload.Source carries composite multi-tenant workloads that have
// no single Program), so outside the workloads packages it is treated
// as deprecated.
var deprecatedFuncs = []deprecatedFunc{
	{"internal/workloads", "NewGenerator", "(*Workload).Source (or spec.Compile for spec-built programs)",
		[]string{"internal/workloads"}},
}

// Name implements Rule.
func (*DeprecatedRule) Name() string { return "no-deprecated" }

// Doc implements Rule.
func (*DeprecatedRule) Doc() string {
	return "no references to deprecated functions (direct workloads.NewGenerator construction) outside their allowed packages"
}

// Check implements Rule.
func (r *DeprecatedRule) Check(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				def, _ := p.Info.Defs[fd.Name].(*types.Func)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.Info.Uses[id].(*types.Func)
					if !ok || fn == def {
						return true
					}
					if d := r.match(fn); d != nil && !inScope(p.Path, d.allowPkgs) {
						out = append(out, Diagnostic{
							Pos:     m.Fset.Position(id.Pos()),
							Rule:    r.Name(),
							Message: fmt.Sprintf("%s is deprecated; use %s", fn.Name(), d.instead),
						})
					}
					return true
				})
			}
		}
	}
	return out
}

// match returns the ban-list entry for fn, or nil.
func (*DeprecatedRule) match(fn *types.Func) *deprecatedFunc {
	path := pkgPathOf(fn)
	for i := range deprecatedFuncs {
		d := &deprecatedFuncs[i]
		if fn.Name() != d.name {
			continue
		}
		if strings.HasSuffix(path, "/"+d.pkgSuffix) || path == d.pkgSuffix {
			return d
		}
	}
	return nil
}
