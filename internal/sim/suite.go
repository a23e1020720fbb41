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
		cache = l2stream.NewCache(opts.StreamBudget, "")
		defer cache.Close()
	}
	if cache != nil {
		return runSuiteFused(ctx, ws, pols, cfg, cache, opts)
	}
	jobs := suiteJobs(ws, pols, opts.Scope, func(ctx context.Context, w *workloads.Workload, p NamedFactory) (SuiteResult, error) {
		// Direct mode (capture/replay disabled): every cell is its own
		// full trace run through the one Run entry point.
		res, err := Run(ctx, RunSpec{Workload: w, Policy: p.New, Config: cfg})
		if err != nil {
			return SuiteResult{}, fmt.Errorf("%s/%s: %w", w.Name, p.Name, err)
		}
		res.Policy = p.Name
		return SuiteResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), TLBOnlyResult: res}, nil
	})
	return engine.Run(ctx, jobs, engine.Config{Workers: opts.Workers, Sink: opts.Sink, Checkpoint: opts.Checkpoint})
}

// runSuiteFused is the capture/replay suite path: one engine job per
// workload captures (or reuses) the stream and replays every policy in
// a single fused pass (ReplayMulti), instead of len(pols) jobs that
// each re-decode the stream. Results keep the workload-major,
// policy-minor order the per-cell path guarantees, and a failed
// workload still leaves its policy rows in place (zero-valued) so
// callers indexing cell (i, j) stay correct.
//
// Checkpoint keys are per fused job — Policy is the "+"-joined policy
// list — so a resumed run re-replays a half-finished workload instead
// of trusting partial rows (replays are cheap; captures are what the
// persistent cache tier saves).
func runSuiteFused(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, cfg TLBOnlyConfig, cache *l2stream.Cache, opts SuiteOptions) ([]SuiteResult, error) {
	factories := make([]PolicyFactory, len(pols))
	names := make([]string, len(pols))
	for i, p := range pols {
		factories[i], names[i] = p.New, p.Name
	}
	joined := strings.Join(names, "+")
	jobs := make([]engine.Job[[]SuiteResult], 0, len(ws))
	for _, w := range ws {
		w := w
		jobs = append(jobs, engine.Job[[]SuiteResult]{
			Key: engine.Key{Scope: opts.Scope, Workload: w.Name, Policy: joined},
			Run: func(ctx context.Context) ([]SuiteResult, error) {
				return runWorkloadFused(ctx, w, pols, factories, cfg, cache, opts.Scope)
			},
		})
	}
	grouped, err := engine.Run(ctx, jobs, engine.Config{Workers: opts.Workers, Sink: opts.Sink, Checkpoint: opts.Checkpoint})
	flat := make([]SuiteResult, 0, len(ws)*len(pols))
	for _, rows := range grouped {
		if rows == nil {
			rows = make([]SuiteResult, len(pols))
		}
		flat = append(flat, rows...)
	}
	return flat, err
}

// runWorkloadFused runs one workload's fused job. The fast path is a
// single ReplayMulti pass. If that pass fails — one broken policy
// errors or panics mid-event, which necessarily takes the whole fused
// group down — the job degrades to solo per-policy runs over the
// (already captured) stream, so every healthy policy still delivers
// its row and the error blames the precise (workload, policy) cell,
// exactly as the per-cell scheduling used to. The returned rows
// accompany the error; the engine keeps both.
func runWorkloadFused(ctx context.Context, w *workloads.Workload, pols []NamedFactory, factories []PolicyFactory, cfg TLBOnlyConfig, cache *l2stream.Cache, scope string) ([]SuiteResult, error) {
	row := func(res TLBOnlyResult, name string) SuiteResult {
		res.Policy = name
		return SuiteResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), TLBOnlyResult: res}
	}
	rs, err := protectMulti(ctx, w, factories, cfg, cache)
	if err == nil {
		rows := make([]SuiteResult, len(rs))
		for i := range rs {
			rows[i] = row(rs[i], pols[i].Name)
		}
		return rows, nil
	}

	rows := make([]SuiteResult, len(pols))
	var firstErr error
	for i, p := range pols {
		res, rerr := protectCell(ctx, w, p, cfg, cache)
		if rerr != nil {
			if firstErr == nil {
				firstErr = &engine.JobError{
					Key: engine.Key{Scope: scope, Workload: w.Name, Policy: p.Name},
					Err: rerr,
				}
			}
			continue
		}
		rows[i] = row(res, p.Name)
	}
	if firstErr == nil {
		// The fused pass failed but every solo rerun passed (a capture
		// error that resolved, or a flaky policy): report the original
		// failure rather than pretending it did not happen.
		firstErr = fmt.Errorf("%s: fused replay failed (solo reruns passed): %w", w.Name, err)
	}
	return rows, firstErr
}

// protectMulti runs the fused pass, converting a policy panic into an
// error so the job can fall back to solo runs instead of relying on
// the engine's recovery (which would blame the whole fused key).
func protectMulti(ctx context.Context, w *workloads.Workload, factories []PolicyFactory, cfg TLBOnlyConfig, cache *l2stream.Cache) (rs []TLBOnlyResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &engine.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return RunMulti(ctx, RunSpec{Workload: w, Config: cfg, Cache: cache}, factories)
}

// protectCell runs one (workload, policy) cell solo with the same
// panic conversion the engine applies, so the fallback's blame carries
// the panic value and stack.
func protectCell(ctx context.Context, w *workloads.Workload, p NamedFactory, cfg TLBOnlyConfig, cache *l2stream.Cache) (res TLBOnlyResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &engine.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return Run(ctx, RunSpec{Workload: w, Policy: p.New, Config: cfg, Cache: cache})
}

// RunSuiteTimingCtx measures each workload under each policy with the
// full timing model, with the same engine semantics as
// RunSuiteTLBOnlyCtx.
func RunSuiteTimingCtx(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, cfg pipeline.Config, opts SuiteOptions) ([]TimingResult, error) {
	jobs := suiteJobs(ws, pols, opts.Scope, func(_ context.Context, w *workloads.Workload, p NamedFactory) (TimingResult, error) {
		m, err := pipeline.New(cfg, p.New(), func() tlb.Policy { return policy.NewLRU() })
		if err != nil {
			return TimingResult{}, fmt.Errorf("%s/%s: %w", w.Name, p.Name, err)
		}
		src := trace.NewLimit(w.Source(), cfg.Instructions)
		res, err := m.Run(src)
		if err != nil {
			return TimingResult{}, fmt.Errorf("%s/%s: %w", w.Name, p.Name, err)
		}
		res.Policy = p.Name
		return TimingResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), Result: res}, nil
	})
	return engine.Run(ctx, jobs, engine.Config{Workers: opts.Workers, Sink: opts.Sink, Checkpoint: opts.Checkpoint})
}
