package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAllocRule enforces that //chirp:hotpath functions — the
// per-event inner loops whose speed the BENCH_hotpath.json baselines
// measure — contain no construct that allocates or schedules:
//
//   - make, new, and append (append may grow its backing array; reuse
//     patterns that provably cannot grow take a //chirp:allow);
//   - map and slice composite literals;
//   - closure creation (func literals capture by reference and
//     heap-allocate);
//   - defer (deferred frames are heap-allocated until Go's open-coded
//     cases apply, and add per-call overhead either way);
//   - go statements;
//   - calls into fmt (formatting allocates and reflects);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - implicit conversions of concrete values to interface parameters
//     (boxing allocates unless escape analysis saves it — on the hot
//     path we do not gamble);
//   - &x passed as a call argument where x is a function-local
//     variable: a callee that keeps or forwards the pointer (a TLB
//     handing its Access to a policy interface) moves x to the heap,
//     once per call. Hoist x into a field of a long-lived receiver.
//
// Built-in calls like panic are exempt from the interface-boxing check:
// a reached panic has already left the hot path.
type HotpathAllocRule struct{}

// Name implements Rule.
func (*HotpathAllocRule) Name() string { return "hotpath-alloc" }

// Doc implements Rule.
func (*HotpathAllocRule) Doc() string {
	return "//chirp:hotpath functions must be free of allocation, defer, closures, fmt, and interface boxing"
}

// Check implements Rule.
func (r *HotpathAllocRule) Check(m *Module) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     m.Fset.Position(pos),
			Rule:    r.Name(),
			Message: fmt.Sprintf(format, args...),
		})
	}
	for fd, p := range m.HotpathFuncs() {
		if fd.Body == nil {
			continue
		}
		name := funcDisplayName(fd)
		info := p.Info
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				report(n.Pos(), "defer in hot-path function %s", name)
			case *ast.GoStmt:
				report(n.Pos(), "go statement in hot-path function %s", name)
			case *ast.FuncLit:
				report(n.Pos(), "closure creation in hot-path function %s allocates", name)
			case *ast.CompositeLit:
				switch info.Types[n].Type.Underlying().(type) {
				case *types.Map:
					report(n.Pos(), "map literal in hot-path function %s allocates", name)
				case *types.Slice:
					report(n.Pos(), "slice literal in hot-path function %s allocates", name)
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isString(info.Types[n.X].Type) {
					report(n.Pos(), "string concatenation in hot-path function %s allocates", name)
				}
			case *ast.CallExpr:
				r.checkCall(info, n, name, report)
			}
			return true
		})
	}
	return out
}

// checkCall applies the call-shaped checks: banned built-ins, fmt,
// allocating conversions, and interface boxing of arguments.
func (*HotpathAllocRule) checkCall(info *types.Info, call *ast.CallExpr, name string, report func(token.Pos, string, ...any)) {
	switch calleeBuiltin(info, call) {
	case "make":
		report(call.Pos(), "make in hot-path function %s allocates", name)
		return
	case "new":
		report(call.Pos(), "new in hot-path function %s allocates", name)
		return
	case "append":
		report(call.Pos(), "append in hot-path function %s may grow its backing array", name)
		return
	case "":
	default:
		return // other built-ins (len, cap, panic, ...) never box their args
	}

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Type conversion: string <-> []byte/[]rune copies.
		target := tv.Type
		if len(call.Args) == 1 {
			src := info.Types[call.Args[0]].Type
			if src != nil && ((isString(target) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(target) && isString(src))) {
				report(call.Pos(), "string/slice conversion in hot-path function %s allocates", name)
			}
		}
		return
	}

	if fn := calleeFunc(info, call); fn != nil && pkgPathOf(fn) == "fmt" {
		report(call.Pos(), "fmt.%s call in hot-path function %s allocates and reflects", fn.Name(), name)
		return
	}

	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if x := addressedLocal(info, arg); x != nil {
			report(arg.Pos(), "&%s passes a local's address in hot-path function %s; a callee that keeps it moves %s to the heap on every call (hoist it into a field)", x.Name(), name, x.Name())
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // arg is already the slice
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !isInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || isInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "argument boxes concrete %s into %s in hot-path function %s", at, pt, name)
	}
}

// addressedLocal returns the variable x when arg is &x and x is local
// to a function (a parameter or a variable declared in its body);
// package-level variables and fields do not move per call.
func addressedLocal(info *types.Info, arg ast.Expr) *types.Var {
	u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	id, ok := ast.Unparen(u.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}
