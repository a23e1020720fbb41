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
	// workload once total. When nil, the TLB-only runner owns a
	// per-call cache (released on return) so the per-workload capture
	// is still shared across this call's policies.
	StreamCache *l2stream.Cache
	// StreamBudget is the byte budget of the owned per-call cache
	// (0 = l2stream.DefaultBudget). A negative budget disables
	// capture/replay entirely: every (workload, policy) cell runs the
	// direct RunTLBOnly path. Ignored when StreamCache is set.
	StreamBudget int64
}

// suiteJobs builds one engine job per (workload, policy) pair, in
// workload-major order — the result ordering both runners guarantee.
func suiteJobs[T any](ws []*workloads.Workload, pols []NamedFactory, scope string,
	run func(ctx context.Context, w *workloads.Workload, p NamedFactory) (T, error)) []engine.Job[T] {
	jobs := make([]engine.Job[T], 0, len(ws)*len(pols))
	for _, w := range ws {
		for _, p := range pols {
			w, p := w, p
			jobs = append(jobs, engine.Job[T]{
				Key: engine.Key{Scope: scope, Workload: w.Name, Policy: p.Name},
				Run: func(ctx context.Context) (T, error) { return run(ctx, w, p) },
			})
		}
	}
	return jobs
}

// RunSuiteTLBOnlyCtx measures each workload under each policy with
// the fast TLB-only driver, fanning (workload, policy) pairs across
// the engine's worker pool. Results are ordered by workload then
// policy. On failure (including a panicking policy, which surfaces as
// an error naming its pair instead of crashing the process) the
// completed results are still returned — and still checkpointed, when
// opts.Checkpoint is set.
func RunSuiteTLBOnlyCtx(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, cfg TLBOnlyConfig, opts SuiteOptions) ([]SuiteResult, error) {
	cache := opts.StreamCache
	if cache == nil && opts.StreamBudget >= 0 {
		cache = l2stream.NewCache(opts.StreamBudget)
		defer cache.Close()
	}
	row := func(w *workloads.Workload, name string, res TLBOnlyResult) SuiteResult {
		res.Policy = name
		return SuiteResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), TLBOnlyResult: res}
	}
	cell := func(ctx context.Context, w *workloads.Workload, p NamedFactory) (SuiteResult, error) {
		res, err := Run(ctx, RunSpec{Workload: w, Policy: p.New, Config: cfg, Cache: cache})
		if err != nil {
			return SuiteResult{}, err
		}
		return row(w, p.Name, res), nil
	}
	if cache == nil {
		// Direct mode (capture/replay disabled): every cell is its own
		// full trace run through the one Run entry point.
		return engine.Run(ctx, suiteJobs(ws, pols, opts.Scope, cell), opts.engineConfig())
	}
	factories := make([]PolicyFactory, len(pols))
	for i, p := range pols {
		factories[i] = p.New
	}
	// One job per workload captures (or reuses) the stream and replays
	// every policy in a single pass (ReplayMulti), instead of len(pols)
	// jobs that each re-decode it.
	fused := func(ctx context.Context, w *workloads.Workload) ([]SuiteResult, error) {
		rs, err := RunMulti(ctx, RunSpec{Workload: w, Config: cfg, Cache: cache}, factories)
		if err != nil {
			return nil, err
		}
		rows := make([]SuiteResult, len(rs))
		for i := range rs {
			rows[i] = row(w, pols[i].Name, rs[i])
		}
		return rows, nil
	}
	return runSuiteFused(ctx, ws, pols, opts, fused, cell)
}

// RunSuiteTimingCtx measures each workload under each policy with the
// full timing model, with the same engine semantics as
// RunSuiteTLBOnlyCtx. With the paper's flat walk penalty the front end
// (caches, branch unit, L1 TLBs) is policy-invariant, so one job per
// workload drives every policy's L2 TLB from a single pass
// (pipeline.NewMulti). The radix walker's PTE fetches go through the
// shared caches, so that configuration runs one machine per cell.
func RunSuiteTimingCtx(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, cfg pipeline.Config, opts SuiteOptions) ([]TimingResult, error) {
	row := func(w *workloads.Workload, name string, res pipeline.Result) TimingResult {
		res.Policy = name
		return TimingResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), Result: res}
	}
	run := func(w *workloads.Workload, l2 []tlb.Policy) ([]pipeline.Result, error) {
		m, err := pipeline.NewMulti(cfg, l2, func() tlb.Policy { return policy.NewLRU() })
		if err != nil {
			return nil, err
		}
		return m.RunMulti(trace.NewLimit(w.Source(), cfg.Instructions))
	}
	cell := func(_ context.Context, w *workloads.Workload, p NamedFactory) (TimingResult, error) {
		rs, err := run(w, []tlb.Policy{p.New()})
		if err != nil {
			return TimingResult{}, err
		}
		return row(w, p.Name, rs[0]), nil
	}
	if cfg.UseRadixWalker {
		return engine.Run(ctx, suiteJobs(ws, pols, opts.Scope, cell), opts.engineConfig())
	}
	fused := func(_ context.Context, w *workloads.Workload) ([]TimingResult, error) {
		l2 := make([]tlb.Policy, len(pols))
		for i, p := range pols {
			l2[i] = p.New()
		}
		rs, err := run(w, l2)
		if err != nil {
			return nil, err
		}
		rows := make([]TimingResult, len(rs))
		for i := range rs {
			rows[i] = row(w, pols[i].Name, rs[i])
		}
		return rows, nil
	}
	return runSuiteFused(ctx, ws, pols, opts, fused, cell)
}

// engineConfig maps the suite options onto the engine's.
func (o SuiteOptions) engineConfig() engine.Config {
	return engine.Config{Workers: o.Workers, Sink: o.Sink, Checkpoint: o.Checkpoint}
}

// runSuiteFused schedules one engine job per workload, each running
// every policy at once through fused. Results keep the workload-major,
// policy-minor order the per-cell path guarantees, and a failed
// workload still leaves its policy rows in place (zero-valued) so
// callers indexing cell (i, j) stay correct.
//
// Checkpoint keys are per fused job — Policy is the "+"-joined policy
// list — so a resumed run reruns a half-finished workload instead of
// trusting partial rows.
func runSuiteFused[T any](ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, opts SuiteOptions,
	fused func(ctx context.Context, w *workloads.Workload) ([]T, error),
	cell func(ctx context.Context, w *workloads.Workload, p NamedFactory) (T, error)) ([]T, error) {
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
				return runWorkloadFused(ctx, w, pols, opts.Scope, fused, cell)
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
// necessarily takes the whole group down — the job degrades to solo
// per-policy cells, so every healthy policy still delivers its row
// and the error blames the precise (workload, policy) cell, exactly as
// per-cell scheduling would. The returned rows accompany the error;
// the engine keeps both.
func runWorkloadFused[T any](ctx context.Context, w *workloads.Workload, pols []NamedFactory, scope string,
	fused func(ctx context.Context, w *workloads.Workload) ([]T, error),
	cell func(ctx context.Context, w *workloads.Workload, p NamedFactory) (T, error)) ([]T, error) {
	rows, err := recovered(func() ([]T, error) { return fused(ctx, w) })
	if err == nil {
		return rows, nil
	}

	rows = make([]T, len(pols))
	var firstErr error
	for i, p := range pols {
		row, rerr := recovered(func() (T, error) { return cell(ctx, w, p) })
		if rerr != nil {
			if firstErr == nil {
				firstErr = &engine.JobError{
					Key: engine.Key{Scope: scope, Workload: w.Name, Policy: p.Name},
					Err: rerr,
				}
			}
			continue
		}
		rows[i] = row
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
