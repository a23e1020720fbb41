package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
)

// DeterminismRule enforces bit-determinism where the reproduction
// depends on it: the synthetic workload suite stands in for the CVP-1
// traces only if every run of a workload is identical from its seed,
// and the replay/direct equivalence tests diff results bit for bit.
// In internal/workloads, internal/core, internal/trace, internal/sim,
// internal/pipeline and internal/experiments (the generator,
// predictor, trace, timing and result paths, down to the figures'
// reductions) the rule bans:
//
//   - time.Now and time.Since — wall-clock values leak into whatever
//     they touch;
//   - importing math/rand or math/rand/v2 — their streams are not
//     stable across Go releases and the global source is process-wide
//     state; trace.RNG is the seeded generator everything must use;
//   - ranging over a map — iteration order is randomized per run;
//     collect-then-sort sites carry a //chirp:allow with the reason.
//
// The engine's telemetry and latency accounting intentionally uses the
// wall clock; internal/engine is outside this rule's scope for exactly
// that reason, as are _test.go files (never loaded by chirpvet).
type DeterminismRule struct{}

// determinismScopes are the module-relative package scopes the rule
// patrols.
var determinismScopes = []string{
	"internal/workloads",
	"internal/core",
	"internal/trace",
	"internal/sim",
	"internal/experiments",
	"internal/pipeline",
}

// Name implements Rule.
func (*DeterminismRule) Name() string { return "determinism" }

// Doc implements Rule.
func (*DeterminismRule) Doc() string {
	return "no wall clock, global math/rand, or map-order-dependent code in workload/predictor/trace/result paths"
}

// Check implements Rule.
func (r *DeterminismRule) Check(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, p := range m.Pkgs {
		if !inScope(p.Path, determinismScopes) {
			continue
		}
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if path == "math/rand" || path == "math/rand/v2" {
					out = append(out, Diagnostic{
						Pos:     m.Fset.Position(imp.Pos()),
						Rule:    r.Name(),
						Message: fmt.Sprintf("import of %s in %s: runs must be bit-deterministic from their seed; use trace.RNG", path, p.Types.Name()),
					})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					fn, ok := p.Info.Uses[n.Sel].(*types.Func)
					if !ok || pkgPathOf(fn) != "time" {
						return true
					}
					if name := fn.Name(); name == "Now" || name == "Since" {
						out = append(out, Diagnostic{
							Pos:     m.Fset.Position(n.Pos()),
							Rule:    r.Name(),
							Message: fmt.Sprintf("time.%s in %s: wall-clock values break bit-determinism of seeded runs", name, p.Types.Name()),
						})
					}
				case *ast.RangeStmt:
					t := p.Info.Types[n.X].Type
					if t == nil {
						return true
					}
					if _, ok := t.Underlying().(*types.Map); ok {
						out = append(out, Diagnostic{
							Pos:     m.Fset.Position(n.Pos()),
							Rule:    r.Name(),
							Message: "map iteration order is randomized per run; iterate a sorted key slice (or //chirp:allow with the reason order cannot escape)",
						})
					}
				}
				return true
			})
		}
	}
	return out
}
