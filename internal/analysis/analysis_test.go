package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// expectation is one // want comment from a fixture: a diagnostic whose
// message matches re must be reported at file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantArgRe = regexp.MustCompile(`"([^"]*)"`)

// collectWants scans a fixture directory's sources for // want
// comments. A want sharing a line with code expects a diagnostic on
// that line; a want alone on its line expects one on the line above
// (for directive fixtures, where trailing text would change parsing).
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			args := wantArgRe.FindAllStringSubmatch(line[idx:], -1)
			if len(args) == 0 {
				t.Fatalf("%s:%d: // want comment without a quoted pattern", path, i+1)
			}
			target := i + 1
			if strings.TrimSpace(line[:idx]) == "" {
				target = i // whole-line want applies to the previous line
			}
			for _, a := range args {
				re, err := regexp.Compile(a[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, a[1], err)
				}
				out = append(out, &expectation{file: path, line: target, re: re})
			}
		}
	}
	return out
}

// testFixture loads the given testdata/src directories, runs the
// selected rules, and diffs the diagnostics against the fixtures'
// want comments in both directions.
func testFixture(t *testing.T, ruleSel string, dirs ...string) {
	t.Helper()
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	rel := make([]string, len(dirs))
	for i, d := range dirs {
		rel[i] = filepath.Join("internal", "analysis", "testdata", "src", filepath.FromSlash(d))
	}
	mod, err := loader.LoadDirs(rel...)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := SelectRules(ruleSel)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(mod, rules)

	var wants []*expectation
	for _, d := range rel {
		wants = append(wants, collectWants(t, filepath.Join(root, d))...)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestHotpathAllocFixture(t *testing.T) { testFixture(t, "hotpath-alloc", "hotpath") }

func TestObsBoundaryFixture(t *testing.T) { testFixture(t, "obs-boundary", "obsflow") }

func TestDeterminismFixture(t *testing.T) {
	testFixture(t, "determinism", "determinism/internal/workloads")
}

func TestCtxFirstFixture(t *testing.T) { testFixture(t, "ctx-first", "ctxfirst/internal/sim") }

func TestDeprecatedFixture(t *testing.T) {
	testFixture(t, "no-deprecated", "deprecated/app",
		"deprecated/internal/workloads", "deprecated/internal/workloads/spec")
}

func TestDirectiveHygiene(t *testing.T) { testFixture(t, "hotpath-alloc", "directive") }

func TestLockBalanceFixture(t *testing.T) { testFixture(t, "lock-balance", "lockbalance") }

// TestPairLifetimeFixture also covers the //chirp:acquires and
// //chirp:releases directive hygiene (pairlife/hygiene.go).
func TestPairLifetimeFixture(t *testing.T) { testFixture(t, "pair-lifetime", "pairlife") }

func TestGoroutineFixture(t *testing.T) { testFixture(t, "goroutine-discipline", "goroutine") }

// TestSelectRules covers the -rules selection surface.
func TestSelectRules(t *testing.T) {
	all, err := SelectRules("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Rules()) {
		t.Fatalf("empty selection: got %d rules, want %d", len(all), len(Rules()))
	}
	two, err := SelectRules("determinism, ctx-first")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name() != "determinism" || two[1].Name() != "ctx-first" {
		t.Fatalf("subset selection resolved to %v", two)
	}
	if _, err := SelectRules("nope"); err == nil {
		t.Fatal("unknown rule selection did not error")
	}
	if _, err := SelectRules("atomic-mix"); err == nil {
		t.Fatal("atomic-mix selection did not error")
	}
	if _, err := SelectRules(","); err == nil {
		t.Fatal("empty-after-split selection did not error")
	}
}

// TestLoadModuleClean is the dogfood gate in miniature: the repository
// itself must be clean under every rule, so the CI chirpvet run stays
// green.
func TestLoadModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow")
	}
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(mod, Rules()); len(diags) > 0 {
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
	if len(mod.HotpathFuncs()) == 0 {
		t.Error("module has no //chirp:hotpath functions; annotations were lost")
	}
}

// BenchmarkChirpvet measures one full-module analysis pass — loader,
// parser, type check, and every rule — the cost every CI chirpvet
// invocation pays. Each iteration builds a fresh loader: the memoized
// package cache would otherwise turn iterations 2..N into no-ops.
func BenchmarkChirpvet(b *testing.B) {
	root := moduleRoot(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loader, err := NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		mod, err := loader.LoadModule()
		if err != nil {
			b.Fatal(err)
		}
		if diags := Run(mod, Rules()); len(diags) != 0 {
			b.Fatalf("module not clean: %v", diags)
		}
	}
}

// TestDiagnosticString pins the canonical rendering.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "determinism", Message: "no"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "a/b.go", 3, 7
	if got, want := d.String(), "a/b.go:3:7: [determinism] no"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
