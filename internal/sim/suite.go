package sim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
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
	// Checkpoint, when non-nil, restores already-completed workloads
	// instead of re-simulating them and records each new completion,
	// so a killed run resumes where it stopped.
	Checkpoint *engine.Checkpoint
	// Scope namespaces this invocation's checkpoint keys and blames
	// its failed cells. Callers that run the suite more than once
	// against one checkpoint file must pass distinct scopes. RunPasses
	// takes each pass's own scope instead.
	Scope string
	// StreamCache, when non-nil, puts every cell on the capture/replay
	// path: one job captures (or, from a persistent cache's directory,
	// loads) its workload's L2 event stream, serves every cell of the
	// call from it, and drops it from the cache when it ends, so the
	// cache holds at most one stream per running job. Each stream
	// carries RunMulti's replay-result memo for as long as the job
	// lives, so a (configuration, policy) cell that an earlier pass of
	// the same call already replayed is served instead of walked again.
	// A second call captures again unless the cache is persistent.
	// Nil selects the direct RunTLBOnly reference path for every cell,
	// as a nil RunSpec.Cache does for one run.
	StreamCache *l2stream.Cache
}

// Pass is one configuration of a multi-pass suite run: the checkpoint
// scope its cells are blamed under, the TLB-only configuration, and
// the named policies it measures. OPT adds one more row per workload
// after the policies' rows: the offline Bélády optimum, named "opt".
type Pass struct {
	Scope    string
	Config   TLBOnlyConfig
	Policies []NamedFactory
	OPT      bool
}

// cells is the number of rows the pass yields per workload.
func (p Pass) cells() int {
	if p.OPT {
		return len(p.Policies) + 1
	}
	return len(p.Policies)
}

// RunSuiteTLBOnlyCtx measures each workload under each policy with
// the fast TLB-only driver: it is RunPasses with one pass, scoped
// opts.Scope. Results are ordered by workload then policy. On failure
// (including a panicking policy, which surfaces as an error naming
// its pair instead of crashing the process) the completed results are
// still returned — and still checkpointed, when opts.Checkpoint is
// set. A zero instruction budget is an error.
func RunSuiteTLBOnlyCtx(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, cfg TLBOnlyConfig, opts SuiteOptions) ([]SuiteResult, error) {
	rows, err := RunPasses(ctx, ws, []Pass{{Scope: opts.Scope, Config: cfg, Policies: pols}}, opts)
	if rows == nil {
		return nil, err
	}
	return rows[0], err
}

// RunPasses measures each workload under every pass, running
// workload-major: one engine job per workload, across the engine's
// worker pool. With opts.StreamCache set, the job gets the workload's
// stream once, fetches in one DerivedAll call every view its passes
// read (so every missing one builds in a single decode pass), walks
// each pass through RunMulti's memoized replay, and runs the OPT
// oracle over the same stream; when it ends it drops the stream from
// the cache. With a nil cache, and for a pass with a branch observer
// no stream can drive, the pass runs RunTLBOnly once per policy over
// a fresh source instead. Every pass must share one capture
// configuration (CaptureConfig), since a job holds one stream.
//
// The result holds one slice per pass, in RunSuiteTLBOnlyCtx's
// layout: workload-major, then the pass's policies, then its OPT row.
// A failed workload leaves its rows in place, zero-valued, so callers
// indexing cell (i, j) stay correct, and the completed rows come back
// with the error. A failing cell degrades its job to one run per cell,
// so every healthy cell still delivers its row and the error blames
// the precise (scope, workload, policy) cell.
//
// The checkpoint holds one row per workload, keyed by the whole plan
// (passesKey): it restores only into the passes that wrote it.
func RunPasses(ctx context.Context, ws []*workloads.Workload, passes []Pass, opts SuiteOptions) ([][]SuiteResult, error) {
	if len(passes) == 0 {
		return nil, errors.New("sim: a suite run needs at least one pass")
	}
	for _, p := range passes {
		switch {
		case p.Config.Instructions == 0:
			return nil, errZeroBudget
		case p.cells() == 0:
			return nil, fmt.Errorf("sim: pass %q measures nothing", p.Scope)
		case CaptureConfig(p.Config) != CaptureConfig(passes[0].Config):
			return nil, fmt.Errorf("sim: pass %q captures under %+v, not %+v like the first pass", p.Scope, CaptureConfig(p.Config), CaptureConfig(passes[0].Config))
		}
	}
	scopes := make([]string, len(passes))
	for i, p := range passes {
		scopes[i] = p.Scope
	}
	key := engine.Key{Scope: strings.Join(scopes, ","), Policy: passesKey(passes)}
	jobs := make([]engine.Job[[][]SuiteResult], len(ws))
	for i, w := range ws {
		w := w
		key.Workload = w.Name
		jobs[i] = engine.Job[[][]SuiteResult]{
			Key: key,
			Run: func(ctx context.Context) ([][]SuiteResult, error) {
				j := &passJob{w: w, profile: w.Profile(), passes: passes, cache: opts.StreamCache}
				return j.run(ctx)
			},
		}
	}
	grouped, err := engine.Run(ctx, jobs, opts.engineConfig())
	out := make([][]SuiteResult, len(passes))
	for i, p := range passes {
		out[i] = make([]SuiteResult, 0, len(ws)*p.cells())
		for _, rows := range grouped {
			if rows == nil {
				out[i] = append(out[i], make([]SuiteResult, p.cells())...)
				continue
			}
			out[i] = append(out[i], rows[i]...)
		}
	}
	return out, err
}

// passesKey is a multi-pass job's checkpoint identity beside its
// workload: a hash of every pass's scope, configuration, policy names
// and OPT row, under a format tag. A checkpoint row restores only into
// the plan that wrote it, and a row of the older one-job-per-suite-call
// format (keyed by the "+"-joined policy list) never matches, so an
// older checkpoint reruns.
func passesKey(passes []Pass) string {
	h := fnv.New64a()
	for _, p := range passes {
		fmt.Fprintf(h, "%q %+v %t", p.Scope, p.Config, p.OPT)
		for _, f := range p.Policies {
			fmt.Fprintf(h, " %q", f.Name)
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("passes/v1:%016x", h.Sum64())
}

// passJob is one workload's job in a RunPasses call.
type passJob struct {
	w       *workloads.Workload
	profile string
	passes  []Pass
	cache   *l2stream.Cache
	// stream is the workload's captured stream once all has fetched
	// it; nil means the direct path.
	stream *l2stream.Stream
}

// run measures every pass. If that fails — one broken policy errors
// or panics mid-run, which necessarily takes the whole job down — the
// job degrades to one run per cell, so every healthy cell still
// delivers its row and the error blames the precise cell, as per-cell
// scheduling would. The returned rows accompany the error; the engine
// keeps both. The stream leaves the cache when the job ends.
func (j *passJob) run(ctx context.Context) ([][]SuiteResult, error) {
	defer func() {
		if j.stream != nil {
			j.cache.Drop(CaptureKey(j.w.Name, j.w.SpecHash, j.passes[0].Config))
		}
	}()
	rows, err := recovered(func() ([][]SuiteResult, error) { return j.all(ctx) })
	if err == nil {
		return rows, nil
	}

	rows = make([][]SuiteResult, len(j.passes))
	var firstErr error
	blame := func(p Pass, policy string, err error) {
		if firstErr == nil {
			firstErr = &engine.JobError{Key: engine.Key{Scope: p.Scope, Workload: j.w.Name, Policy: policy}, Err: err}
		}
	}
	for i, p := range j.passes {
		rows[i] = make([]SuiteResult, p.cells())
		for k, f := range p.Policies {
			rs, err := recovered(func() ([]TLBOnlyResult, error) {
				return measure(ctx, j.spec(p), j.stream, []tlb.Policy{f.New()})
			})
			if err != nil {
				blame(p, f.Name, err)
				continue
			}
			rows[i][k] = j.row(f.Name, rs[0])
		}
		if p.OPT {
			res, err := recovered(func() (TLBOnlyResult, error) { return runOPT(ctx, j.spec(p), j.stream) })
			if err != nil {
				blame(p, "opt", err)
				continue
			}
			rows[i][len(p.Policies)] = j.row("opt", res)
		}
	}
	if firstErr == nil {
		// The job failed but every solo rerun passed (a capture error
		// that resolved, or a flaky policy): report the original
		// failure rather than pretending it did not happen.
		firstErr = fmt.Errorf("%s: fused run failed (solo reruns passed): %w", j.w.Name, err)
	}
	return rows, firstErr
}

// all measures every pass over one fetch of the stream and its views.
// Each pass's policies are built fresh up front, so the views the
// replayable ones read are known before any pass walks, and released
// as soon as their pass is done.
func (j *passJob) all(ctx context.Context) ([][]SuiteResult, error) {
	ps := make([][]tlb.Policy, len(j.passes))
	var replay []tlb.Policy // the policies of every pass a stream can drive
	opt := false
	for i, p := range j.passes {
		ps[i] = make([]tlb.Policy, len(p.Policies))
		for k, f := range p.Policies {
			ps[i][k] = f.New()
		}
		if replayable(ps[i]) {
			replay = append(replay, ps[i]...)
		}
		opt = opt || p.OPT
	}
	if len(replay) > 0 || opt {
		spec := j.spec(j.passes[0])
		stream, err := spec.stream()
		if err != nil {
			return nil, err
		}
		if j.stream = stream; stream != nil {
			decoded, _ := decodedFor(replay)
			if _, err := decodedViews(stream, decoded); err != nil {
				return nil, err
			}
		}
	}
	rows := make([][]SuiteResult, len(j.passes))
	for i, p := range j.passes {
		rs, err := measure(ctx, j.spec(p), j.stream, ps[i])
		if err != nil {
			return nil, err
		}
		ps[i] = nil
		rows[i] = make([]SuiteResult, 0, p.cells())
		for k, res := range rs {
			rows[i] = append(rows[i], j.row(p.Policies[k].Name, res))
		}
		if p.OPT {
			res, err := runOPT(ctx, j.spec(p), j.stream)
			if err != nil {
				return nil, err
			}
			rows[i] = append(rows[i], j.row("opt", res))
		}
	}
	return rows, nil
}

// spec is the RunSpec of pass p over the job's workload.
func (j *passJob) spec(p Pass) RunSpec {
	return RunSpec{Workload: j.w, Config: p.Config, Cache: j.cache}
}

// row labels one cell's result.
func (j *passJob) row(policy string, res TLBOnlyResult) SuiteResult {
	res.Policy = policy
	return SuiteResult{Workload: j.w.Name, Category: j.w.Category, Profile: j.profile, TLBOnlyResult: res}
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
type fusedFunc func(ctx context.Context, w *workloads.Workload, pols []NamedFactory) ([]TimingResult, error)

// engineConfig maps the suite options onto the engine's.
func (o SuiteOptions) engineConfig() engine.Config {
	return engine.Config{Workers: o.Workers, Sink: o.Sink, Checkpoint: o.Checkpoint}
}

// runSuiteFused schedules the timing suite's engine jobs, one per
// workload, each running every policy through one fused(ctx, w, pols)
// call. Results are in workload-major, policy-minor order, and a
// failed workload still leaves its policy rows in place (zero-valued)
// so callers indexing cell (i, j) stay correct.
//
// Checkpoint keys are per fused job — Policy is the "+"-joined policy
// list — so a resumed run reruns a half-finished workload instead of
// trusting partial rows.
func runSuiteFused(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, opts SuiteOptions, fused fusedFunc) ([]TimingResult, error) {
	names := make([]string, len(pols))
	for i, p := range pols {
		names[i] = p.Name
	}
	joined := strings.Join(names, "+")
	jobs := make([]engine.Job[[]TimingResult], 0, len(ws))
	for _, w := range ws {
		w := w
		jobs = append(jobs, engine.Job[[]TimingResult]{
			Key: engine.Key{Scope: opts.Scope, Workload: w.Name, Policy: joined},
			Run: func(ctx context.Context) ([]TimingResult, error) {
				return runWorkloadFused(ctx, w, pols, opts.Scope, fused)
			},
		})
	}
	grouped, err := engine.Run(ctx, jobs, opts.engineConfig())
	flat := make([]TimingResult, 0, len(ws)*len(pols))
	for _, rows := range grouped {
		if rows == nil {
			rows = make([]TimingResult, len(pols))
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
func runWorkloadFused(ctx context.Context, w *workloads.Workload, pols []NamedFactory, scope string, fused fusedFunc) ([]TimingResult, error) {
	rows, err := recovered(func() ([]TimingResult, error) { return fused(ctx, w, pols) })
	if err == nil {
		return rows, nil
	}

	rows = make([]TimingResult, len(pols))
	var firstErr error
	for i, p := range pols {
		row, rerr := recovered(func() ([]TimingResult, error) { return fused(ctx, w, pols[i:i+1]) })
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
