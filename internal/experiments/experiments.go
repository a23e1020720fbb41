// Package experiments regenerates every table and figure of the
// paper's evaluation (§VI): each Fig*/Table* function runs the
// required simulations over the synthetic suite and returns the series
// the paper plots, plus a writer that renders them as text/CSV. The
// cmd/chirpexp binary and the repository's benchmarks are thin
// wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"io"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/workloads"
)

// Options scales an experiment run. The paper simulates 870 traces for
// up to 100 M instructions; on a laptop-class host use fewer
// workloads and instructions — shapes stabilise long before full
// scale.
type Options struct {
	// Workloads is the suite prefix size (≤ 870; 0 means the full
	// suite).
	Workloads int
	// Suite, when non-nil, replaces the default 870-workload suite —
	// e.g. the compiled population of a -workload-spec run. Workloads
	// still selects a prefix of it.
	Suite []*workloads.Workload
	// Instructions bounds each trace.
	Instructions uint64
	// WalkPenalty is the L2 TLB miss penalty for timing experiments
	// (the paper's headline speedups use 150).
	WalkPenalty uint64
	// Workers bounds simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Ctx cancels in-progress suite runs (nil = Background). A
	// cancelled run stops dispatching jobs, drains the in-flight ones
	// and — with Checkpoint set — leaves a resumable file behind.
	Ctx context.Context
	// Sink observes per-job engine progress (nil = silent).
	Sink engine.Sink
	// Checkpoint, when non-nil, makes every suite run resumable: each
	// experiment namespaces its jobs with a scope, so one file covers
	// a whole `-exp all` sweep.
	Checkpoint *engine.Checkpoint
	// StreamCache puts the TLB-only experiments on the capture/replay
	// path. Within one call (one experiment, or the merged plans of
	// RunPlans) each workload is captured once and serves every pass,
	// the prefetch distances and the OPT oracle included; its stream
	// dies with the workload's job, so a later call captures again
	// unless the cache is persistent and loads it from its directory. Nil selects the direct RunTLBOnly reference path;
	// see sim.SuiteOptions.StreamCache.
	StreamCache *l2stream.Cache
}

// ctx returns the run context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// suiteOpts assembles the engine-facing options for one suite
// invocation under a checkpoint scope. A timing experiment passes its
// own scope; RunPlans passes none, since each sim.Pass carries its
// own, so the passes of several experiments share one checkpoint file
// without colliding.
func (o Options) suiteOpts(scope string) sim.SuiteOptions {
	return sim.SuiteOptions{Workers: o.Workers, Sink: o.Sink, Checkpoint: o.Checkpoint, Scope: scope,
		StreamCache: o.StreamCache}
}

// DefaultOptions returns a laptop-scale configuration: the full suite
// at 2 M instructions per trace for MPKI experiments.
func DefaultOptions() Options {
	return Options{
		Workloads:    workloads.SuiteSize,
		Instructions: 2_000_000,
		WalkPenalty:  150,
	}
}

func (o Options) suite() []*workloads.Workload {
	if o.Suite != nil {
		if n := o.Workloads; n > 0 && n < len(o.Suite) {
			return o.Suite[:n]
		}
		return o.Suite
	}
	n := o.Workloads
	if n <= 0 || n > workloads.SuiteSize {
		n = workloads.SuiteSize
	}
	return workloads.SuiteN(n)
}

func (o Options) tlbCfg() sim.TLBOnlyConfig {
	return sim.DefaultTLBOnlyConfig(o.Instructions)
}

// PolicyAverages summarises one policy over a suite run.
type PolicyAverages struct {
	Policy        string
	MeanMPKI      float64
	ReductionPct  float64 // of mean MPKI vs LRU
	MeanEff       float64
	EffGainPct    float64 // vs LRU
	TableRateMean float64
}

// Result is an experiment's printable result.
type Result interface{ Write(io.Writer) error }

// Plan is a TLB-only experiment split in two: the suite passes it
// declares and the reduction of their rows into its result. RunPlans
// merges the plans of several experiments into one sim.RunPasses
// call, so one job per workload serves every experiment's cells from
// one capture of its stream.
type Plan struct {
	Passes []sim.Pass
	// Reduce turns the rows of Passes, one slice per pass in
	// sim.RunPasses's layout, into the result.
	Reduce func(rows [][]sim.SuiteResult) Result
}

// Plans declares the TLB-only experiments, by chirpexp id.
var Plans = map[string]func(Options) Plan{
	"fig1":       fig1Plan,
	"fig6":       fig6Plan,
	"fig7":       fig7Plan,
	"fig9":       fig9Plan,
	"fig11":      fig11Plan,
	"opt":        optPlan,
	"baselines":  baselinesPlan,
	"prefetch":   prefetchPlan,
	"categories": categoriesPlan,
}

// RunPlans runs the passes of every plan in one sim.RunPasses call
// over the suite and returns each plan's reduced result, in plans
// order.
func RunPlans(o Options, plans []Plan) ([]Result, error) {
	var passes []sim.Pass
	for _, p := range plans {
		passes = append(passes, p.Passes...)
	}
	rows, err := sim.RunPasses(o.ctx(), o.suite(), passes, o.suiteOpts(""))
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(plans))
	for i, p := range plans {
		out[i] = p.Reduce(rows[:len(p.Passes)])
		rows = rows[len(p.Passes):]
	}
	return out, nil
}

// runPlan runs one experiment's plan on its own; R is the result type
// its reduction returns.
func runPlan[R Result](o Options, p Plan) (R, error) {
	rs, err := RunPlans(o, []Plan{p})
	if err != nil {
		var zero R
		return zero, err
	}
	return rs[0].(R), nil
}

// indexByPolicy indexes one pass's rows by policy name, each policy's rows
// in workload order.
func indexByPolicy(rows []sim.SuiteResult) map[string][]sim.SuiteResult {
	out := map[string][]sim.SuiteResult{}
	for _, r := range rows {
		out[r.Policy] = append(out[r.Policy], r)
	}
	return out
}

// workloadNames lists the workloads of one policy's rows, in order.
func workloadNames(rs []sim.SuiteResult) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Workload
	}
	return out
}

// policies resolves registered policy names; callers pass this
// package's constants, so an unknown name is a bug.
func policies(names ...string) []sim.NamedFactory {
	fs, err := sim.Factories(names)
	if err != nil {
		panic(err)
	}
	return fs
}

// mustFactory resolves one registered policy name.
func mustFactory(name string) sim.PolicyFactory { return policies(name)[0].New }

// meanMPKI is the mean MPKI of one policy's suite rows.
func meanMPKI(rs []sim.SuiteResult) float64 {
	return stats.Mean(collect(rs, func(r sim.SuiteResult) float64 { return r.MPKI }))
}

// averages reduces per-policy results against the "lru" baseline.
func averages(byPolicy map[string][]sim.SuiteResult, order []string) []PolicyAverages {
	lruEff := collect(byPolicy["lru"], func(r sim.SuiteResult) float64 { return r.Efficiency })
	baseMPKI := meanMPKI(byPolicy["lru"])
	baseEff := stats.Mean(lruEff)
	out := make([]PolicyAverages, 0, len(order))
	for _, name := range order {
		rs := byPolicy[name]
		m := meanMPKI(rs)
		e := stats.Mean(collect(rs, func(r sim.SuiteResult) float64 { return r.Efficiency }))
		out = append(out, PolicyAverages{
			Policy:        name,
			MeanMPKI:      m,
			ReductionPct:  stats.Reduction(baseMPKI, m),
			MeanEff:       e,
			EffGainPct:    stats.Reduction(baseEff, e) * -1, // gain, not reduction
			TableRateMean: stats.Mean(collect(rs, func(r sim.SuiteResult) float64 { return r.TableAccessRate })),
		})
	}
	return out
}

func collect[T any](rs []T, f func(T) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func writeAverages(w io.Writer, avgs []PolicyAverages) error {
	rows := make([][]string, 0, len(avgs))
	for _, a := range avgs {
		rows = append(rows, []string{
			a.Policy,
			fmt.Sprintf("%.3f", a.MeanMPKI),
			fmt.Sprintf("%+.2f%%", a.ReductionPct),
			fmt.Sprintf("%.3f", a.MeanEff),
			fmt.Sprintf("%+.2f%%", a.EffGainPct),
		})
	}
	return stats.Table(w, []string{"policy", "mean MPKI", "MPKI vs LRU", "efficiency", "eff vs LRU"}, rows)
}
