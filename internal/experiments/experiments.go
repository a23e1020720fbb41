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
	// StreamCache shares captured L2 event streams across an
	// experiment's suite invocations (and across experiments, when the
	// caller passes one cache to several). Sweep-style experiments that
	// call the suite many times with a fixed trace budget — Fig6's
	// history sweeps, Fig9's storage ladder, the prefetch-distance
	// sweep — capture each workload once total instead of once per
	// sweep point. Nil leaves each suite call to its own per-call
	// cache; see sim.SuiteOptions.StreamCache.
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
// invocation. Experiments that drive the suite several times under
// one name (config sweeps reusing policy names) must pass a distinct
// scope per invocation so checkpoint keys never collide.
func (o Options) suiteOpts(scope string) sim.SuiteOptions {
	return sim.SuiteOptions{Workers: o.Workers, Sink: o.Sink, Checkpoint: o.Checkpoint, Scope: scope,
		StreamCache: o.StreamCache}
}

// withCache returns options that are guaranteed to carry a stream
// cache, plus the cleanup for it. Experiments that invoke the suite
// several times with one trace budget call this so every invocation
// shares captures; when the caller already supplied a cache, it is
// kept (and the cleanup is a no-op, since the caller owns it).
func (o Options) withCache() (Options, func()) {
	if o.StreamCache != nil {
		return o, func() {}
	}
	c := l2stream.NewCache(0)
	o.StreamCache = c
	return o, func() { c.Close() }
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

// suiteMPKI runs the TLB-only suite for the named policies under the
// given checkpoint scope and indexes results by policy.
func suiteMPKI(o Options, scope string, policyNames []string) (map[string][]sim.SuiteResult, []*workloads.Workload, error) {
	ws := o.suite()
	pols, err := sim.Factories(policyNames)
	if err != nil {
		return nil, nil, err
	}
	results, err := sim.RunSuiteTLBOnlyCtx(o.ctx(), ws, pols, o.tlbCfg(), o.suiteOpts(scope))
	if err != nil {
		return nil, nil, err
	}
	byPolicy := make(map[string][]sim.SuiteResult, len(pols))
	for _, r := range results {
		byPolicy[r.Policy] = append(byPolicy[r.Policy], r)
	}
	return byPolicy, ws, nil
}

// averages reduces per-policy results against the "lru" baseline.
func averages(byPolicy map[string][]sim.SuiteResult, order []string) []PolicyAverages {
	lruMPKI := collect(byPolicy["lru"], func(r sim.SuiteResult) float64 { return r.MPKI })
	lruEff := collect(byPolicy["lru"], func(r sim.SuiteResult) float64 { return r.Efficiency })
	baseMPKI := stats.Mean(lruMPKI)
	baseEff := stats.Mean(lruEff)
	out := make([]PolicyAverages, 0, len(order))
	for _, name := range order {
		rs := byPolicy[name]
		m := stats.Mean(collect(rs, func(r sim.SuiteResult) float64 { return r.MPKI }))
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
