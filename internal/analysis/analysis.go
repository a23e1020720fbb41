// Package analysis is chirpvet's engine: a standard-library-only
// (go/ast, go/parser, go/types — no golang.org/x/tools dependency,
// preserving the module's zero-require policy) static analysis
// framework that mechanically enforces the repository's performance
// and reproducibility invariants:
//
//   - hotpath-alloc: functions annotated //chirp:hotpath (the
//     replay/direct inner loops, TLB lookup/insert, the SWAR recency
//     stacks, the folded-history push) must stay allocation-free — the
//     3.3x replay win in BENCH_hotpath.json dies silently if an alloc
//     sneaks into a per-event function.
//   - obs-boundary: nothing reachable from a hotpath function may call
//     into internal/obs; instrumented layers aggregate into plain
//     counters and publish deltas at run boundaries.
//   - determinism: workloads and result paths must be bit-deterministic
//     from their seeds — no wall clock, no global math/rand, no
//     map-iteration-order-dependent output.
//   - ctx-first: exported work-launching functions in internal/sim and
//     internal/engine take a context.Context first.
//   - no-deprecated: workloads.NewGenerator may not be called outside
//     the workloads packages (this rule replaced the CI grep gate).
//
// A second tier of rules runs a forward must/may dataflow analysis
// over per-function control-flow graphs (cfg.go, dataflow.go):
//
//   - lock-balance: every sync.Mutex/RWMutex Lock reaches its Unlock
//     on all paths (or via defer), and no lock is held across a
//     channel operation, select, or sync.WaitGroup.Wait.
//   - pair-lifetime: values acquired through a //chirp:acquires
//     function (pooled TLB arrays, the tlbarrays pair) must reach a
//     matching //chirp:releases call on every path, unless they
//     escape the function.
//   - atomic-mix: a struct field accessed through sync/atomic anywhere
//     in the module must never be read or written plainly elsewhere.
//   - goroutine-discipline: wg.Add precedes the go statement it
//     covers on every path, the spawned function calls wg.Done on all
//     paths, and goroutines referencing their loop variable are
//     flagged for explicit rebinding.
//
// Comment directives steer the rules:
//
//	//chirp:hotpath
//	    in a function's doc comment marks it as a hot-path function
//	    checked by hotpath-alloc and used as an obs-boundary root.
//
//	//chirp:allow <rule> <reason>
//	    suppresses <rule>'s diagnostics on the directive's line, on the
//	    following line, or — when it appears in a function's doc
//	    comment — in the whole function. The reason is mandatory;
//	    directives without one are themselves reported.
//
//	//chirp:acquires <token>
//	    in a function's doc comment declares that the function's
//	    non-error results hold a resource named <token> that callers
//	    must release. At most one per function.
//
//	//chirp:releases <token>
//	    in a function's doc comment declares that calling the function
//	    (on, or passing, an acquired value) releases <token>. May be
//	    repeated for functions releasing several resource kinds.
//
// Tokens are lowercase identifiers ([a-z][a-z0-9_-]*). Malformed
// directives — wrong placement, missing or malformed token, duplicate
// acquires — are diagnosed by the same hygiene pass as //chirp:allow.
//
// Only non-test sources are analyzed: _test.go files may freely use
// maps, wall clocks and deprecated functions.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding, renderable as
// "file:line:col: [rule] message".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the canonical one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Rule is one named check over a loaded module.
type Rule interface {
	// Name is the rule's identifier in diagnostics, -rules selections
	// and //chirp:allow directives.
	Name() string
	// Doc is a one-line description for chirpvet -list.
	Doc() string
	// Check analyzes the module and returns raw diagnostics;
	// suppression directives are applied by the framework afterwards.
	Check(m *Module) []Diagnostic
}

// Rules returns the full rule set in reporting order.
func Rules() []Rule {
	return []Rule{
		&HotpathAllocRule{},
		&ObsBoundaryRule{},
		&DeterminismRule{},
		&CtxFirstRule{},
		&DeprecatedRule{},
		&LockBalanceRule{},
		&PairLifetimeRule{},
		&AtomicMixRule{},
		&GoroutineRule{},
	}
}

// RuleNames returns the names of every registered rule.
func RuleNames() []string {
	rules := Rules()
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name()
	}
	return names
}

// SelectRules resolves a comma-separated -rules selection. An empty
// selection means every rule.
func SelectRules(selection string) ([]Rule, error) {
	all := Rules()
	if selection == "" {
		return all, nil
	}
	byName := make(map[string]Rule, len(all))
	for _, r := range all {
		byName[r.Name()] = r
	}
	var out []Rule
	for _, name := range strings.Split(selection, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown rule %q (have %s)", name, strings.Join(RuleNames(), ", "))
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: empty rule selection %q", selection)
	}
	return out, nil
}

// Run executes the rules over the module, applies //chirp:allow
// suppressions, folds in directive hygiene findings, and returns the
// surviving diagnostics sorted by position.
func Run(m *Module, rules []Rule) []Diagnostic {
	var out []Diagnostic
	for _, r := range rules {
		for _, d := range r.Check(m) {
			if !m.allowed(r.Name(), d.Pos) {
				out = append(out, d)
			}
		}
	}
	out = append(out, m.directiveProblems...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}

// Directive names.
const (
	directiveHotpath  = "//chirp:hotpath"
	directiveAllow    = "//chirp:allow"
	directiveAcquires = "//chirp:acquires"
	directiveReleases = "//chirp:releases"
)

// allowRange is one //chirp:allow grant: rule suppressed over the
// [fromLine, toLine] range of its file (ranges are indexed per file in
// Module.allows, so the file name lives in the map key).
type allowRange struct {
	rule     string
	from, to int
}

// pairTokenRe is the //chirp:acquires///chirp:releases token grammar.
var pairTokenRe = regexp.MustCompile(`^[a-z][a-z0-9_-]*$`)

// knownRuleNames builds the rule-name set exactly once per process;
// the registered rule set is static, so collectDirectives (called once
// per module over every file) never rebuilds it.
var knownRuleNames = sync.OnceValue(func() map[string]bool {
	known := make(map[string]bool)
	for _, n := range RuleNames() {
		known[n] = true
	}
	return known
})

// collectDirectives scans every parsed file of the module for chirp
// directives, recording hotpath annotations, allow ranges (indexed per
// file), acquire/release pairings, and hygiene problems (missing rule
// or reason, unknown rule name, malformed pairing token). It runs once
// per module: the rule-name set and the comment→FuncDecl doc index are
// built a single time up front instead of per file.
func (m *Module) collectDirectives() {
	known := knownRuleNames()

	// Map every comment to the FuncDecl whose doc group holds it, so
	// doc-comment directives can take function scope. One pass over
	// all declarations of all packages; comments are unique nodes, so
	// a single module-wide map is sound.
	docOf := make(map[*ast.Comment]*ast.FuncDecl)
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					docOf[c] = fd
				}
			}
		}
	}

	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			m.collectFileDirectives(p, f, known, docOf)
		}
	}
}

// collectFileDirectives scans one file's comments against the
// module-wide rule-name set and doc index.
func (m *Module) collectFileDirectives(p *Package, f *ast.File, known map[string]bool, docOf map[*ast.Comment]*ast.FuncDecl) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			switch {
			case text == directiveHotpath || strings.HasPrefix(text, directiveHotpath+" "):
				fd := docOf[c]
				if fd == nil {
					m.directiveProblems = append(m.directiveProblems, Diagnostic{
						Pos:     m.Fset.Position(c.Pos()),
						Rule:    "directive",
						Message: "//chirp:hotpath must appear in a function's doc comment",
					})
					continue
				}
				m.hotpath[fd] = p
			case strings.HasPrefix(text, directiveAllow):
				rest := strings.TrimPrefix(text, directiveAllow)
				if rest != "" && !strings.HasPrefix(rest, " ") {
					continue // some other //chirp:allowXyz token; not ours
				}
				fields := strings.Fields(rest)
				pos := m.Fset.Position(c.Pos())
				if len(fields) == 0 {
					m.directiveProblems = append(m.directiveProblems, Diagnostic{
						Pos: pos, Rule: "directive",
						Message: "//chirp:allow needs a rule name and a reason",
					})
					continue
				}
				rule := fields[0]
				if !known[rule] {
					m.directiveProblems = append(m.directiveProblems, Diagnostic{
						Pos: pos, Rule: "directive",
						Message: fmt.Sprintf("//chirp:allow names unknown rule %q (have %s)", rule, strings.Join(RuleNames(), ", ")),
					})
					continue
				}
				if len(fields) < 2 {
					m.directiveProblems = append(m.directiveProblems, Diagnostic{
						Pos: pos, Rule: "directive",
						Message: fmt.Sprintf("//chirp:allow %s needs a reason", rule),
					})
					continue
				}
				ar := allowRange{rule: rule, from: pos.Line, to: pos.Line + 1}
				if fd := docOf[c]; fd != nil {
					ar.from = m.Fset.Position(fd.Pos()).Line
					ar.to = m.Fset.Position(fd.End()).Line
				}
				m.allows[pos.Filename] = append(m.allows[pos.Filename], ar)
			case strings.HasPrefix(text, directiveAcquires), strings.HasPrefix(text, directiveReleases):
				name := directiveAcquires
				if strings.HasPrefix(text, directiveReleases) {
					name = directiveReleases
				}
				rest := strings.TrimPrefix(text, name)
				if rest != "" && !strings.HasPrefix(rest, " ") {
					continue // some other //chirp:acquiresXyz token; not ours
				}
				pos := m.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) != 1 || !pairTokenRe.MatchString(fields[0]) {
					m.directiveProblems = append(m.directiveProblems, Diagnostic{
						Pos: pos, Rule: "directive",
						Message: fmt.Sprintf("%s takes exactly one token matching %s", name, pairTokenRe),
					})
					continue
				}
				fd := docOf[c]
				if fd == nil {
					m.directiveProblems = append(m.directiveProblems, Diagnostic{
						Pos: pos, Rule: "directive",
						Message: fmt.Sprintf("%s must appear in a function's doc comment", name),
					})
					continue
				}
				token := fields[0]
				if name == directiveAcquires {
					if prev, dup := m.acquires[fd]; dup {
						// Report at the declaration: gofmt pins
						// directives to the end of the doc comment, so
						// the function line is the stable anchor.
						m.directiveProblems = append(m.directiveProblems, Diagnostic{
							Pos: m.Fset.Position(fd.Pos()), Rule: "directive",
							Message: fmt.Sprintf("duplicate //chirp:acquires (function already acquires %q)", prev),
						})
						continue
					}
					m.acquires[fd] = token
				} else {
					m.releases[fd] = append(m.releases[fd], token)
				}
			}
		}
	}
}

// allowed reports whether a diagnostic of rule at pos is suppressed by
// an in-scope //chirp:allow directive. The per-file index keeps this
// O(allows in that file) rather than O(allows in the module).
func (m *Module) allowed(rule string, pos token.Position) bool {
	for _, a := range m.allows[pos.Filename] {
		if a.rule == rule && pos.Line >= a.from && pos.Line <= a.to {
			return true
		}
	}
	return false
}

// HotpathFuncs returns the //chirp:hotpath-annotated declarations and
// their packages.
func (m *Module) HotpathFuncs() map[*ast.FuncDecl]*Package { return m.hotpath }

// AcquireToken returns the //chirp:acquires token on fd, or "".
func (m *Module) AcquireToken(fd *ast.FuncDecl) string { return m.acquires[fd] }

// ReleaseTokens returns the //chirp:releases tokens on fd.
func (m *Module) ReleaseTokens(fd *ast.FuncDecl) []string { return m.releases[fd] }
