package workloads

import (
	"fmt"

	"github.com/chirplab/chirp/internal/trace"
)

// Workload names one member of a compiled suite or spec and builds its
// trace source on demand. Building is cheap; the heavy state is in the
// Generator (or, for composite multi-tenant workloads, the scheduler
// behind the source hook).
type Workload struct {
	Name     string
	Category string
	// Seed is the effective seed the workload's trace derives from
	// (after master-seed mixing, for spec-compiled workloads).
	Seed uint64
	// SpecHash is the content hash of the workload spec this workload
	// was compiled from. Legacy Suite/SuiteN workloads predate specs
	// and carry ""; the hash keeps persistent capture streams from
	// colliding across specs (see internal/l2stream).
	SpecHash string

	build    func(name string, seed uint64) *Program
	source   func() trace.Source
	describe func() Description
	profile  string
}

// Program constructs the workload's program model. Composite workloads
// (multi-tenant schedules) have no single program and return nil; use
// Source for the trace and Describe for the report.
func (w *Workload) Program() *Program {
	if w.build == nil {
		return nil
	}
	return w.build(w.Name, w.Seed)
}

// Source returns a fresh deterministic trace stream for the workload.
func (w *Workload) Source() trace.Source {
	if w.source != nil {
		return w.source()
	}
	return NewGenerator(w.Program())
}

// Profile reports the workload's population profile ("quiet",
// "pressure", "migrate", or a composite label) without requiring a
// Program.
func (w *Workload) Profile() string {
	if w.profile != "" {
		return w.profile
	}
	if p := w.Program(); p != nil {
		return p.Profile
	}
	return ""
}

// Describe summarises the workload. Spec-compiled composites report
// their tenant/client structure; program workloads report their
// program model.
func (w *Workload) Describe() Description {
	if w.describe != nil {
		return w.describe()
	}
	d := Describe(w.Program())
	d.SpecHash = w.SpecHash
	return d
}

// NewProgramWorkload wraps a program builder as a workload. The spec
// compiler uses it for single-client programs; seed is the effective
// (master-mixed) seed and specHash labels the originating spec.
func NewProgramWorkload(name, category, specHash string, seed uint64, build func(name string, seed uint64) *Program) *Workload {
	return &Workload{Name: name, Category: category, Seed: seed, SpecHash: specHash, build: build}
}

// NewSourceWorkload wraps an arbitrary deterministic source factory
// (e.g. a multi-tenant scheduler) as a composite workload. profile
// labels the population profile for suite reports; describe supplies
// the -describe report.
func NewSourceWorkload(name, category, specHash string, seed uint64, profile string, source func() trace.Source, describe func() Description) *Workload {
	return &Workload{
		Name: name, Category: category, Seed: seed, SpecHash: specHash,
		profile: profile, source: source, describe: describe,
	}
}

// TraceFile wraps a binary trace file (trace.OpenFile's format) as a
// workload, so a recorded trace runs through every driver a generated
// one does. The file is opened here once to validate it, then closed;
// every Source call opens it again, and a file that no longer opens
// panics there, as trace.FileSource.Reset does (the engine reports the
// panic as a job error). Name is the path and SpecHash is "", so the
// file's capture-stream key is its path.
func TraceFile(path string) (*Workload, error) {
	f, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	f.Close()
	return NewSourceWorkload(path, "trace", "", 0, "", func() trace.Source {
		f, err := trace.OpenFile(path)
		if err != nil {
			panic(fmt.Sprintf("workloads: reopening %s: %v", path, err))
		}
		return f
	}, nil), nil
}

// Categories lists the suite's workload families, mirroring the
// paper's description of the CVP-1 mix: "SPEC, database, crypto,
// scientific, web, 'big data' and other applications". Each category
// is a program template the spec compiler can also instantiate
// directly (spec clients with "template": "db" etc.).
var Categories = []string{"spec", "db", "crypto", "sci", "web", "bigdata", "ml", "osmix"}

var builders = map[string]func(name string, seed uint64) *Program{
	"spec":    buildSpec,
	"db":      buildDB,
	"crypto":  buildCrypto,
	"sci":     buildSci,
	"web":     buildWeb,
	"bigdata": buildBigData,
	"ml":      buildML,
	"osmix":   buildOSMix,
}

// Template returns the named category template's program builder, for
// the spec compiler; ok is false for unknown templates.
func Template(category string) (build func(name string, seed uint64) *Program, ok bool) {
	build, ok = builders[category]
	return build, ok
}

// SuiteSize is the number of workloads the paper simulates.
const SuiteSize = 870

// SuiteSpec declares an interleaved suite of template-built workloads —
// the registry form behind Suite/SuiteN and the `suite` section of a
// workload spec (internal/workloads/spec).
type SuiteSpec struct {
	// Size is the number of workloads to materialise.
	Size int
	// Categories are the templates to interleave; nil means Categories.
	Categories []string
}

// CompileSuite materialises spec into workloads, categories
// interleaved so any prefix is diverse. Per-workload seeds follow the
// historical formula mixed with masterSeed; masterSeed 0 preserves the
// formula exactly, which is what keeps the checked-in default spec
// byte-identical to the legacy suite. specHash labels every workload
// with the spec it came from ("" for the legacy constructors).
func CompileSuite(spec SuiteSpec, masterSeed uint64, specHash string) ([]*Workload, error) {
	cats := spec.Categories
	if len(cats) == 0 {
		cats = Categories
	}
	for _, cat := range cats {
		if _, ok := builders[cat]; !ok {
			return nil, fmt.Errorf("workloads: unknown category %q", cat)
		}
	}
	if spec.Size < 0 {
		return nil, fmt.Errorf("workloads: negative suite size %d", spec.Size)
	}
	out := make([]*Workload, 0, spec.Size)
	idx := make(map[string]int, len(cats))
	for i := 0; i < spec.Size; i++ {
		cat := cats[i%len(cats)]
		k := idx[cat]
		idx[cat]++
		out = append(out, &Workload{
			Name:     fmt.Sprintf("%s-%03d", cat, k),
			Category: cat,
			// Seeds separate categories widely so parameter draws never
			// correlate across families.
			Seed:     MixSeeds(masterSeed, uint64(k)*2654435761+HashString(cat)),
			SpecHash: specHash,
			build:    builders[cat],
		})
	}
	return out, nil
}

// Suite returns the full 870-workload default suite.
func Suite() []*Workload { return SuiteN(SuiteSize) }

// SuiteN returns the first n workloads of the interleaved default
// suite (n ≤ SuiteSize recommended but not required; the naming scheme
// extends indefinitely). It is a thin wrapper over CompileSuite of the
// default declaration.
func SuiteN(n int) []*Workload {
	ws, err := CompileSuite(SuiteSpec{Size: n}, 0, "")
	if err != nil {
		// Unreachable: the default categories always compile.
		panic(err)
	}
	return ws
}

// ByName returns the named workload from the default suite, or nil.
func ByName(name string) *Workload {
	for _, w := range Suite() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// HashString hashes a name (FNV-1a, 64-bit) for seed derivation; the
// suite's category seeds and the spec compiler's client seeds both use
// it so seeds separate widely by name.
func HashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// MixSeeds folds a master seed into a derived seed (splitmix64-style
// finaliser). MixSeeds(0, s) == s, so an unset master seed preserves
// legacy per-workload seeds — the master-seed-supremacy identity the
// golden tests pin.
func MixSeeds(master, derived uint64) uint64 {
	if master == 0 {
		return derived
	}
	z := master ^ (derived * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = derived
	}
	return z
}
