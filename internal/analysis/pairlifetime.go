package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PairLifetimeRule tracks values produced by //chirp:acquires
// functions (pooled TLB arrays, the tlbarrays pair) through each
// function's CFG and reports return paths on which no matching
// //chirp:releases call has run. The analysis is intraprocedural and
// may-leak:
//
//   - An acquire site is created when an annotated call's results are
//     bound in an assignment, var declaration, or discarded in a bare
//     expression statement. The non-error results become the site's
//     holder variables; an `error` result enables err-edge
//     refinement, so `if err != nil { return ... }` after the acquire
//     is not a leak.
//   - The site is released when a //chirp:releases function with the
//     same token is called on (or passed) a holder variable, when a
//     func-typed holder is itself called (a returned release
//     closure), or when either happens under defer.
//   - The site escapes — tracking stops, no diagnostic — when a
//     holder is returned, stored into a struct/slice/map/field,
//     sent on a channel, captured by a function literal, appended,
//     or has its address taken. Passing a holder as an ordinary call
//     argument is a borrow and does not escape.
//
// Paths ending in panic or os.Exit are not reported.
type PairLifetimeRule struct{}

func (r *PairLifetimeRule) Name() string { return "pair-lifetime" }

func (r *PairLifetimeRule) Doc() string {
	return "//chirp:acquires values must reach a //chirp:releases call on every path unless they escape"
}

// pairSite is one live acquisition.
type pairSite struct {
	token  string
	pos    token.Pos
	vars   map[types.Object]bool // holder variables still bound
	errObj types.Object          // error result enabling err-edge refinement
}

func (s *pairSite) clone() *pairSite {
	vars := make(map[types.Object]bool, len(s.vars))
	for k := range s.vars {
		vars[k] = true
	}
	return &pairSite{token: s.token, pos: s.pos, vars: vars, errObj: s.errObj}
}

// pairFact maps acquire call sites to their live state. Copy-on-write.
type pairFact map[*ast.CallExpr]*pairSite

func (f pairFact) clone() pairFact {
	out := make(pairFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// pairFlow is the per-function dataflow problem.
type pairFlow struct {
	m       *Module
	pkg     *Package
	fnIndex map[*types.Func]funcDeclIn
	out     *[]Diagnostic
}

func (pf *pairFlow) Entry() flowFact { return pairFact(nil) }

func (pf *pairFlow) Join(a, b flowFact) flowFact {
	fa, fb := a.(pairFact), b.(pairFact)
	out := make(pairFact, len(fa)+len(fb))
	for k, sa := range fa {
		if sb, ok := fb[k]; ok && sb != sa {
			merged := sa.clone()
			for v := range sb.vars {
				merged.vars[v] = true
			}
			if sb.errObj != sa.errObj {
				merged.errObj = nil
			}
			out[k] = merged
		} else {
			out[k] = sa
		}
	}
	for k, sb := range fb {
		if _, ok := fa[k]; !ok {
			out[k] = sb
		}
	}
	return out
}

func (pf *pairFlow) Equal(a, b flowFact) bool {
	fa, fb := a.(pairFact), b.(pairFact)
	if len(fa) != len(fb) {
		return false
	}
	for k, sa := range fa {
		sb, ok := fb[k]
		if !ok || sa.errObj != sb.errObj || len(sa.vars) != len(sb.vars) {
			return false
		}
		for v := range sa.vars {
			if !sb.vars[v] {
				return false
			}
		}
	}
	return true
}

// Refine drops acquisitions on the edge where their own error result
// is known non-nil: `x, err := Acquire(); if err != nil { ... }` — the
// true edge has no live resource.
func (pf *pairFlow) Refine(b *cfgBlock, branch bool, out flowFact) flowFact {
	bin, ok := ast.Unparen(b.cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return out
	}
	var other ast.Expr
	if isNilIdent(pf.pkg.Info, bin.Y) {
		other = bin.X
	} else if isNilIdent(pf.pkg.Info, bin.X) {
		other = bin.Y
	} else {
		return out
	}
	id, ok := ast.Unparen(other).(*ast.Ident)
	if !ok {
		return out
	}
	obj := pf.pkg.Info.Uses[id]
	if obj == nil {
		obj = pf.pkg.Info.Defs[id]
	}
	if obj == nil {
		return out
	}
	// err != nil: true edge is the failure edge; err == nil: false edge.
	failEdge := branch == (bin.Op == token.NEQ)
	if !failEdge {
		return out
	}
	fact := out.(pairFact)
	var cloned pairFact
	for k, s := range fact {
		if s.errObj == obj {
			if cloned == nil {
				cloned = fact.clone()
			}
			delete(cloned, k)
		}
	}
	if cloned != nil {
		return cloned
	}
	return out
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// acquireToken resolves a call to its //chirp:acquires token, or "".
func (pf *pairFlow) acquireToken(call *ast.CallExpr) string {
	fn := calleeFunc(pf.pkg.Info, call)
	if fn == nil {
		return ""
	}
	in, ok := pf.fnIndex[fn]
	if !ok {
		return ""
	}
	return pf.m.AcquireToken(in.decl)
}

// releaseTokens resolves a call to its //chirp:releases tokens.
func (pf *pairFlow) releaseTokens(call *ast.CallExpr) []string {
	fn := calleeFunc(pf.pkg.Info, call)
	if fn == nil {
		return nil
	}
	in, ok := pf.fnIndex[fn]
	if !ok {
		return nil
	}
	return pf.m.ReleaseTokens(in.decl)
}

// identObj resolves a (possibly parenthesized) identifier expression
// to its object, or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func (pf *pairFlow) report(pos token.Pos, format string, args ...interface{}) {
	*pf.out = append(*pf.out, Diagnostic{
		Pos:     pf.m.Fset.Position(pos),
		Rule:    "pair-lifetime",
		Message: fmt.Sprintf(format, args...),
	})
}

func (pf *pairFlow) Transfer(b *cfgBlock, in flowFact, report bool) flowFact {
	fact := in.(pairFact)
	info := pf.pkg.Info

	// tracked reports whether obj holds some live site.
	tracked := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		for _, s := range fact {
			if s.vars[obj] {
				return true
			}
		}
		return false
	}
	// escapeObj stops tracking every site obj holds.
	escapeObj := func(obj types.Object) {
		if obj == nil {
			return
		}
		var cloned pairFact
		for k, s := range fact {
			if s.vars[obj] {
				if cloned == nil {
					cloned = fact.clone()
				}
				delete(cloned, k)
			}
		}
		if cloned != nil {
			fact = cloned
		}
	}
	// releaseVia removes sites matching any of the tokens whose holder
	// is obj.
	releaseVia := func(obj types.Object, tokens []string) {
		if obj == nil {
			return
		}
		var cloned pairFact
		for k, s := range fact {
			if !s.vars[obj] {
				continue
			}
			for _, t := range tokens {
				if t == s.token {
					if cloned == nil {
						cloned = fact.clone()
					}
					delete(cloned, k)
					break
				}
			}
		}
		if cloned != nil {
			fact = cloned
		}
	}

	for _, n := range b.nodes {
		// 1. Bindings: acquire sites and rebind/invalidate on
		//    assignment.
		switch st := n.(type) {
		case *ast.AssignStmt:
			fact = pf.applyAssign(fact, st.Lhs, st.Rhs)
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, name := range vs.Names {
							lhs[i] = name
						}
						fact = pf.applyAssign(fact, lhs, vs.Values)
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				if tok := pf.acquireToken(call); tok != "" {
					// Result discarded: a site nothing can release.
					fact = fact.clone()
					fact[call] = &pairSite{token: tok, pos: call.Pos(), vars: map[types.Object]bool{}}
				}
			}
		}

		// 2. Releases and escapes anywhere in the node.
		inspectNode(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.CallExpr:
				// Calling a func-typed holder releases its site.
				if obj := identObj(info, x.Fun); obj != nil && tracked(obj) {
					var cloned pairFact
					for k, s := range fact {
						if s.vars[obj] {
							if cloned == nil {
								cloned = fact.clone()
							}
							delete(cloned, k)
						}
					}
					if cloned != nil {
						fact = cloned
					}
					return true
				}
				// Annotated releaser: receiver or any argument.
				if tokens := pf.releaseTokens(x); len(tokens) > 0 {
					if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
						releaseVia(identObj(info, sel.X), tokens)
					}
					for _, arg := range x.Args {
						releaseVia(identObj(info, arg), tokens)
					}
					return true
				}
				// append stores its arguments.
				if calleeBuiltin(info, x) == "append" {
					for _, arg := range x.Args {
						escapeObj(identObj(info, arg))
					}
				}
			case *ast.ReturnStmt:
				for _, res := range x.Results {
					escapeObj(identObj(info, res))
				}
			case *ast.SendStmt:
				escapeObj(identObj(info, x.Value))
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					escapeObj(identObj(info, el))
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if k, ok := flattenKey(info, x.X); ok {
						escapeObj(k.root)
					}
				}
			case *ast.GoStmt:
				for _, arg := range x.Call.Args {
					escapeObj(identObj(info, arg))
				}
			}
			return true
		})
		// Closure capture: any function literal in the node that
		// references a holder makes the site escape (the closure may
		// release it later; we cannot see when).
		if _, synthetic := n.(*implicitReturn); !synthetic {
			ast.Inspect(n, func(x ast.Node) bool {
				lit, ok := x.(*ast.FuncLit)
				if !ok {
					return true
				}
				for _, s := range fact {
					for obj := range s.vars {
						if usesObject(info, lit.Body, map[types.Object]bool{obj: true}) {
							escapeObj(obj)
						}
					}
				}
				return false
			})
		}

		// 3. Report leaks on return paths.
		switch rn := n.(type) {
		case *ast.ReturnStmt:
			if report {
				for _, s := range fact {
					pf.report(rn.Pos(), "return may leak %q acquired at line %d; release it on every path or let it escape",
						s.token, pf.m.Fset.Position(s.pos).Line)
				}
			}
		case *implicitReturn:
			if report {
				for _, s := range fact {
					pf.report(rn.Pos(), "function may end leaking %q acquired at line %d; release it on every path or let it escape",
						s.token, pf.m.Fset.Position(s.pos).Line)
				}
			}
		}
	}
	return fact
}

// applyAssign processes one assignment: existing holders assigned over
// are unbound, error refinement variables are invalidated, bare
// holder copies escape, and annotated acquire calls create sites.
func (pf *pairFlow) applyAssign(fact pairFact, lhs, rhs []ast.Expr) pairFact {
	info := pf.pkg.Info

	// Assigned objects (plain identifiers only).
	assigned := map[types.Object]bool{}
	for _, l := range lhs {
		if obj := identObj(info, l); obj != nil {
			assigned[obj] = true
		}
	}

	// Bare holder on the RHS: the value now lives somewhere else too —
	// stop tracking (x := l2, s.f = l2, arr[i] = l2 all escape).
	var escaped []types.Object
	for _, r := range rhs {
		if obj := identObj(info, r); obj != nil {
			escaped = append(escaped, obj)
		}
	}

	mutated := false
	mutate := func() {
		if !mutated {
			fact = fact.clone()
			mutated = true
		}
	}
	for k, s := range fact {
		for _, obj := range escaped {
			if s.vars[obj] {
				mutate()
				delete(fact, k)
			}
		}
	}
	for k, s := range fact {
		needsClone := false
		for obj := range assigned {
			if s.vars[obj] || s.errObj == obj {
				needsClone = true
			}
		}
		if !needsClone {
			continue
		}
		mutate()
		ns := s.clone()
		for obj := range assigned {
			delete(ns.vars, obj)
			if ns.errObj == obj {
				ns.errObj = nil
			}
		}
		fact[k] = ns
	}

	// New acquire sites: x, err := Acquire(...) (tuple) or
	// a, b := f(), g() (element-wise).
	bind := func(call *ast.CallExpr, targets []ast.Expr) {
		tok := pf.acquireToken(call)
		if tok == "" {
			return
		}
		site := &pairSite{token: tok, pos: call.Pos(), vars: map[types.Object]bool{}}
		for _, t := range targets {
			obj := identObj(info, t)
			if obj == nil {
				continue
			}
			if isErrorType(obj.Type()) {
				site.errObj = obj
			} else {
				site.vars[obj] = true
			}
		}
		mutate()
		fact[call] = site
	}
	if len(rhs) == 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			bind(call, lhs)
		}
	} else if len(rhs) == len(lhs) {
		for i, r := range rhs {
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
				bind(call, lhs[i:i+1])
			}
		}
	}
	return fact
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// Check runs the pair-lifetime dataflow over every function body.
func (r *PairLifetimeRule) Check(m *Module) []Diagnostic {
	var out []Diagnostic
	fnIndex := moduleFuncIndex(m)
	if len(m.acquires) == 0 {
		return nil
	}
	for _, fb := range moduleFuncBodies(m) {
		pf := &pairFlow{m: m, pkg: fb.pkg, fnIndex: fnIndex, out: &out}
		// Cheap gate: skip bodies that never call an acquiring
		// function.
		found := false
		ast.Inspect(fb.body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && pf.acquireToken(call) != "" {
				found = true
			}
			return !found
		})
		if !found {
			continue
		}
		g := buildCFG(fb.body, fb.pkg.Info)
		solveFlow(g, pf)
	}
	return out
}
