package sim

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// SuiteResult is one (workload, policy) TLB-only measurement.
type SuiteResult struct {
	Workload string
	Category string
	Profile  string
	TLBOnlyResult
}

// TimingResult is one (workload, policy) full-timing measurement.
type TimingResult struct {
	Workload string
	Category string
	Profile  string
	pipeline.Result
}

// SuiteOptions carries the cross-cutting controls of a suite run;
// the zero value runs serially with no telemetry or checkpointing.
type SuiteOptions struct {
	// Workers bounds simulation parallelism (<= 0 means GOMAXPROCS).
	Workers int
	// Sink observes per-job progress (nil = silent).
	Sink engine.Sink
	// Checkpoint, when non-nil, restores already-completed (workload,
	// policy) rows instead of re-simulating them and records each new
	// completion, so a killed run resumes where it stopped.
	Checkpoint *engine.Checkpoint
	// Scope namespaces this invocation's checkpoint keys. Callers that
	// run the suite more than once against one checkpoint file (config
	// sweeps reusing policy names) must pass distinct scopes.
	Scope string
	// StreamCache, when non-nil, shares captured L2 event streams
	// across suite invocations, so repeated calls that differ only in
	// the L2 policy, L2 geometry, or prefetch distance capture each
	// workload once total. Each stream also carries RunMulti's
	// replay-result memo, so a (workload, configuration, policy) cell
	// that any invocation sharing the cache already replayed is served
	// instead of walked again. Nil selects the direct RunTLBOnly
	// reference path for every cell, as a nil RunSpec.Cache does for
	// one run.
	StreamCache *l2stream.Cache
}

// RunSuiteTLBOnlyCtx measures each workload under each policy with
// the fast TLB-only driver, fanning workloads across the engine's
// worker pool: one job per workload measures every policy through
// RunMulti — one capture and one ReplayMulti pass through
// opts.StreamCache, or, with a nil cache, one direct RunTLBOnly run
// per policy. Results are ordered by workload then
// policy. On failure (including a panicking policy, which surfaces as
// an error naming its pair instead of crashing the process) the
// completed results are still returned — and still checkpointed, when
// opts.Checkpoint is set. A zero instruction budget is an error.
func RunSuiteTLBOnlyCtx(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, cfg TLBOnlyConfig, opts SuiteOptions) ([]SuiteResult, error) {
	if cfg.Instructions == 0 {
		return nil, errZeroBudget
	}
	fused := func(ctx context.Context, w *workloads.Workload, pols []NamedFactory) ([]SuiteResult, error) {
		factories := make([]PolicyFactory, len(pols))
		for i, p := range pols {
			factories[i] = p.New
		}
		rs, err := RunMulti(ctx, RunSpec{Workload: w, Config: cfg, Cache: opts.StreamCache}, factories)
		if err != nil {
			return nil, err
		}
		rows := make([]SuiteResult, len(rs))
		for i, res := range rs {
			res.Policy = pols[i].Name
			rows[i] = SuiteResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), TLBOnlyResult: res}
		}
		return rows, nil
	}
	return runSuiteFused(ctx, ws, pols, opts, fused)
}

// RunSuiteTimingCtx measures each workload under each policy with the
// full timing model, with the same engine semantics as
// RunSuiteTLBOnlyCtx. With the paper's flat walk penalty the front end
// (caches, branch unit, L1 TLBs) is policy-invariant, so one job per
// workload drives every policy's L2 TLB from a single pass
// (pipeline.NewMulti). The radix walker's PTE fetches go through the
// shared caches, so a radix suite takes one policy; more is an error
// before any job runs, as is a zero instruction budget.
func RunSuiteTimingCtx(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, cfg pipeline.Config, opts SuiteOptions) ([]TimingResult, error) {
	switch {
	case cfg.Instructions == 0:
		return nil, errZeroBudget
	case cfg.UseRadixWalker && len(pols) > 1:
		return nil, fmt.Errorf("sim: the radix walker shares the cache hierarchy, so a radix timing suite takes one policy (got %d)", len(pols))
	}
	fused := func(_ context.Context, w *workloads.Workload, pols []NamedFactory) ([]TimingResult, error) {
		l2 := make([]tlb.Policy, len(pols))
		for i, p := range pols {
			l2[i] = p.New()
		}
		m, err := pipeline.NewMulti(cfg, l2, func() tlb.Policy { return policy.NewLRU() })
		if err != nil {
			return nil, err
		}
		src := trace.NewLimit(w.Source(), cfg.Instructions)
		defer closeSource(src)
		rs, err := m.RunMulti(src)
		if err != nil {
			return nil, err
		}
		rows := make([]TimingResult, len(rs))
		for i, res := range rs {
			res.Policy = pols[i].Name
			rows[i] = TimingResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), Result: res}
		}
		return rows, nil
	}
	return runSuiteFused(ctx, ws, pols, opts, fused)
}

// fusedFunc measures one workload under every policy in pols and
// returns one row per policy, in pols order.
type fusedFunc[T any] func(ctx context.Context, w *workloads.Workload, pols []NamedFactory) ([]T, error)

// engineConfig maps the suite options onto the engine's.
func (o SuiteOptions) engineConfig() engine.Config {
	return engine.Config{Workers: o.Workers, Sink: o.Sink, Checkpoint: o.Checkpoint}
}

// runSuiteFused schedules one engine job per workload, each running
// every policy through one fused(ctx, w, pols) call; every suite runs
// on it. Results are in workload-major, policy-minor order, and a
// failed workload still leaves its policy rows in place (zero-valued)
// so callers indexing cell (i, j) stay correct.
//
// Checkpoint keys are per fused job — Policy is the "+"-joined policy
// list — so a resumed run reruns a half-finished workload instead of
// trusting partial rows.
func runSuiteFused[T any](ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, opts SuiteOptions, fused fusedFunc[T]) ([]T, error) {
	names := make([]string, len(pols))
	for i, p := range pols {
		names[i] = p.Name
	}
	joined := strings.Join(names, "+")
	jobs := make([]engine.Job[[]T], 0, len(ws))
	for _, w := range ws {
		w := w
		jobs = append(jobs, engine.Job[[]T]{
			Key: engine.Key{Scope: opts.Scope, Workload: w.Name, Policy: joined},
			Run: func(ctx context.Context) ([]T, error) {
				return runWorkloadFused(ctx, w, pols, opts.Scope, fused)
			},
		})
	}
	grouped, err := engine.Run(ctx, jobs, opts.engineConfig())
	flat := make([]T, 0, len(ws)*len(pols))
	for _, rows := range grouped {
		if rows == nil {
			rows = make([]T, len(pols))
		}
		flat = append(flat, rows...)
	}
	return flat, err
}

// runWorkloadFused runs one workload's fused job. If the fused pass
// fails — one broken policy errors or panics mid-run, which
// necessarily takes the whole group down — the job degrades to one
// fused call per policy, so every healthy policy still delivers its
// row and the error blames the precise (workload, policy) cell,
// exactly as per-cell scheduling would. The returned rows accompany
// the error; the engine keeps both.
func runWorkloadFused[T any](ctx context.Context, w *workloads.Workload, pols []NamedFactory, scope string, fused fusedFunc[T]) ([]T, error) {
	rows, err := recovered(func() ([]T, error) { return fused(ctx, w, pols) })
	if err == nil {
		return rows, nil
	}

	rows = make([]T, len(pols))
	var firstErr error
	for i, p := range pols {
		row, rerr := recovered(func() ([]T, error) { return fused(ctx, w, pols[i:i+1]) })
		if rerr != nil {
			if firstErr == nil {
				firstErr = &engine.JobError{
					Key: engine.Key{Scope: scope, Workload: w.Name, Policy: p.Name},
					Err: rerr,
				}
			}
			continue
		}
		rows[i] = row[0]
	}
	if firstErr == nil {
		// The fused pass failed but every solo rerun passed (a capture
		// error that resolved, or a flaky policy): report the original
		// failure rather than pretending it did not happen.
		firstErr = fmt.Errorf("%s: fused run failed (solo reruns passed): %w", w.Name, err)
	}
	return rows, firstErr
}

// recovered runs f, converting a panic into an error carrying the
// panic value and stack — the engine's own recovery, applied inside a
// fused job so a panic in one policy can be blamed on its cell instead
// of the whole fused key.
func recovered[T any](f func() (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &engine.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}
