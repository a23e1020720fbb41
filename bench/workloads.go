package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

// storeMode is how a workload uses chirpexp's persistent capture
// directory.
type storeMode int

const (
	storeNone  storeMode = iota // no -capturedir: the timing pipeline cannot replay
	storeFresh                  // a new empty directory per invocation
	storeWarm                   // one directory the set-up populated
)

// workload is one chirpexp invocation the benchmark times. Unless
// FixedSeed is set, the seed the benchmark is given becomes chirpexp's
// -seed, which recompiles the workload spec's population from it;
// nothing else varies with it.
type workload struct {
	Name  string
	Exps  []string // chirpexp experiments, in the order chirpexp runs them
	N     int      // -n population prefix (0 = the whole compiled population)
	Instr uint64
	Spec  string // -workload-spec: a built-in name or a repo-relative path
	Store storeMode
	// FixedSeed runs the spec's own seed whatever the benchmark seed.
	// tenant-long needs it: its streams' footprints sit near the 256 MiB
	// budget, so other seeds move them across it (1 to 3 of the 4
	// captures spill over seeds 1-6, and wall time with them by 3x),
	// while the spec's own seed spills exactly 2 — the split this
	// workload exists to measure.
	FixedSeed bool
	// Oracle is how many of the population's workloads are re-run on
	// the direct (no-capture) reference path and compared with
	// chirpexp's per-workload CSV. tenant-long has none: its direct
	// path costs several times a measured run, so its output is checked
	// by digest and by the traced run instead.
	Oracle int
}

var mpkiExps = []string{"fig6", "fig7", "fig9", "baselines", "prefetch"}

// The paper's scale is 870 workloads at 3 M instructions. Every
// workload keeps the paper's -instr and is cut in -n only, until one
// invocation takes about two seconds on a 2-core machine: a 10-second
// measure run then takes the median of several invocations, and
// set-up plus measurement stays near 20 seconds per run.
var benchWorkloads = []workload{
	{Name: "mpki-cold", Exps: mpkiExps, N: 64, Instr: 3_000_000, Spec: "default",
		Store: storeFresh, Oracle: 2},
	{Name: "mpki-warm", Exps: mpkiExps, N: 64, Instr: 3_000_000, Spec: "default",
		Store: storeWarm, Oracle: 2},
	{Name: "timing", Exps: []string{"fig8"}, N: 32, Instr: 3_000_000, Spec: "default",
		Store: storeNone, Oracle: 1},
	{Name: "tenant-long", Exps: []string{"fig7"}, Instr: 300_000_000, Spec: "bench/specs/multitenant.json",
		Store: storeFresh, FixedSeed: true},
}

// setups is how many untimed invocations of a workload's command run
// before the measured ones; setup_s is their median. They warm the
// page cache and produce the reference output, and for mpki-warm
// they populate the capture directory the measured runs read.
const setups = 3

func workloadByName(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(allWorkloads, ", "))
}

// args returns chirpexp's command line for one invocation.
func (w workload) args(seed uint64, workers int, captureDir string) []string {
	a := []string{
		"-exp", strings.Join(w.Exps, ","),
		"-workload-spec", w.Spec,
		"-instr", strconv.FormatUint(w.Instr, 10),
		"-workers", strconv.Itoa(workers),
	}
	if !w.FixedSeed {
		a = append(a, "-seed", strconv.FormatUint(seed, 10))
	}
	if w.N > 0 {
		a = append(a, "-n", strconv.Itoa(w.N))
	}
	if captureDir != "" {
		a = append(a, "-capturedir", captureDir)
	}
	return a
}

// population compiles the workloads chirpexp runs for this seed, the
// same way chirpexp does: the spec's compiled workloads, cut to -n.
func (w workload) population(root string, seed uint64) ([]*workloads.Workload, error) {
	nameOrPath := w.Spec
	if _, ok := spec.ByName(w.Spec); !ok {
		nameOrPath = filepath.Join(root, w.Spec)
	}
	s, err := spec.Resolve(nameOrPath)
	if err != nil {
		return nil, err
	}
	c, err := spec.Compile(s, spec.Options{Seed: seed, SeedSet: !w.FixedSeed})
	if err != nil {
		return nil, err
	}
	ws := c.Workloads()
	if w.N > 0 && w.N < len(ws) {
		ws = ws[:w.N]
	}
	return ws, nil
}

// passes returns every suite pass the workload's experiments make.
func (w workload) passes() []pass {
	var out []pass
	for _, e := range w.Exps {
		out = append(out, passesFor(e)...)
	}
	return out
}

// cells counts the (workload, policy, pass) simulations one invocation
// performs: the numerator of sim_minstr_per_s.
func (w workload) cells(population int) int {
	n := 0
	for _, p := range w.passes() {
		n += len(p.Policies) * population
	}
	return n
}

// pass is one suite invocation an experiment makes: a policy set over
// the whole population under one configuration. The table below
// mirrors internal/experiments pass for pass; the traced run's
// cross-check against chirpexp's printed output fails if they drift.
type pass struct {
	Exp      string
	Label    string // the row of the experiment's table this pass fills
	Policies []sim.NamedFactory
	Prefetch int  // TLB-only stride-prefetch distance
	Timing   bool // runs the timing pipeline instead of TLB-only replay
}

// walkPenalty is chirpexp's default -penalty, the walk penalty Fig. 8
// uses.
const walkPenalty = 150

// passesFor returns the passes of one chirpexp experiment in the order
// it runs them.
func passesFor(exp string) []pass {
	switch exp {
	case "fig6":
		chirp := func(name string, mut func(*core.Config)) sim.NamedFactory {
			c := core.DefaultConfig()
			mut(&c)
			return sim.NamedFactory{Name: name, New: sim.CHiRPFactory(c)}
		}
		variants := append(policies("ship", "ship-unlimited", "ship-sampled"),
			chirp("chirp-pc", func(c *core.Config) {
				c.UsePathHistory, c.UseCondHistory, c.UseIndirectHistory = false, false, false
			}),
			chirp("chirp-path", func(c *core.Config) { c.UseCondHistory, c.UseIndirectHistory = false, false }),
			chirp("chirp-path-cond", func(c *core.Config) {
				c.UseIndirectHistory = false
				c.History.PathLeadingZeros = false
			}),
			chirp("chirp-lz", func(c *core.Config) { c.UseIndirectHistory = false }),
			chirp("chirp", func(*core.Config) {}),
		)
		out := []pass{{Exp: exp, Label: "lru", Policies: policies("lru")}}
		for _, v := range variants {
			out = append(out, pass{Exp: exp, Label: v.Name, Policies: []sim.NamedFactory{v}})
		}
		return out
	case "fig7":
		return []pass{{Exp: exp, Policies: policies(sim.PaperPolicies...)}}
	case "fig8":
		return []pass{{Exp: exp, Policies: policies(sim.PaperPolicies...), Timing: true}}
	case "fig9":
		out := []pass{{Exp: exp, Label: "lru", Policies: policies("lru")}}
		for _, bytes := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
			c := core.DefaultConfig()
			c.TableEntries = bytes * 8 / 2 // 2-bit counters
			out = append(out, pass{Exp: exp, Label: fmt.Sprintf("%dB", bytes),
				Policies: []sim.NamedFactory{{Name: "chirp", New: sim.CHiRPFactory(c)}}})
		}
		return out
	case "baselines":
		return []pass{{Exp: exp, Policies: policies(sim.ExtendedPolicies...)}}
	case "prefetch":
		var out []pass
		for _, name := range []string{"lru", "chirp"} {
			for _, d := range []int{0, 1, 4} {
				out = append(out, pass{Exp: exp, Label: fmt.Sprintf("%s %d", name, d),
					Policies: policies(name), Prefetch: d})
			}
		}
		return out
	}
	panic("bench: no pass table for experiment " + exp)
}

// policies resolves registered policy names; the names are this
// file's constants, so an unknown one is a bug.
func policies(names ...string) []sim.NamedFactory {
	fs, err := sim.Factories(names)
	if err != nil {
		panic(err)
	}
	return fs
}
