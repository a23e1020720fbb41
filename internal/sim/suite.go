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
	// FrontEnd is the workload's policy-free front-end result in the
	// rows of a timing pass (Pass.Timing), shared by all of them, and
	// nil elsewhere.
	FrontEnd *pipeline.Result `json:",omitempty"`
}

// TimingResult is one (workload, policy) full-timing measurement. A
// suite row's L2TLBStats is zero: the suite measures the L2 TLB by
// replay, which keeps only the figures the row derives from.
type TimingResult struct {
	Workload string
	Category string
	Profile  string
	pipeline.Result
}

// Timing derives a timing pass's row at a flat walk penalty: the front
// end's result with the row's L2 TLB figures, and cycles = front-end
// cycles + post-warmup L2 misses × the penalty — field for field what
// pipeline.New(cfg, policy, …).Run reports, L2TLBStats aside. A row
// with no front end (a failed cell) derives the zero result.
func (r SuiteResult) Timing(walkPenalty uint64) pipeline.Result {
	if r.FrontEnd == nil {
		return pipeline.Result{}
	}
	res := *r.FrontEnd
	res.Policy = r.Policy
	res.Cycles += r.L2Misses * walkPenalty
	res.L2TLBMisses = r.L2Misses
	res.Efficiency = r.Efficiency
	res.PageWalks = r.L2TotalMisses
	res.AvgWalkCycles = float64(walkPenalty)
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.L2TLBMisses) / (float64(res.Instructions) / 1000)
	}
	return res
}

// SuiteOptions carries the cross-cutting controls of a suite run;
// the zero value runs serially with no telemetry or checkpointing.
type SuiteOptions struct {
	// Workers bounds how many workload jobs run at once (<= 0 means
	// GOMAXPROCS). A job's replay walks its policies across up to
	// GOMAXPROCS goroutines of its own.
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
	// loads) its workload's L2 event stream under the cache's
	// per-capture byte cap, serves every cell of the call from it, and
	// lets it go when it ends, so at most one stream per running job is
	// in memory. A job walks the cells of all its passes at once, so a
	// (configuration, policy) cell that several passes share is walked
	// once and served to each. A second call captures again unless the
	// cache is persistent. Nil selects the direct RunTLBOnly reference path for
	// every cell, as a nil RunSpec.Cache does for one run.
	StreamCache *l2stream.Cache
}

// Pass is one configuration of a multi-pass suite run: the checkpoint
// scope its cells are blamed under, the TLB-only configuration, and
// the named policies it measures. OPT adds one more row per workload
// after the policies' rows: the offline Bélády optimum, named "opt".
// Timing gives every row the workload's policy-free front-end result
// (SuiteResult.FrontEnd, which SuiteResult.Timing reads); a timing pass
// takes no prefetcher, which the timing model lacks.
type Pass struct {
	Scope    string
	Config   TLBOnlyConfig
	Policies []NamedFactory
	OPT      bool
	Timing   bool
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
// stream once and walks the cells of every pass in one block pass over
// its views (one decode pass, which also builds every view without a
// sidecar), each distinct cell key once (replayCells), then runs the
// OPT oracle over the same stream; the stream dies with the job. With a nil cache,
// and for a pass with a branch observer no stream can drive, the pass
// runs RunTLBOnly once per policy over a fresh source instead. Every
// pass must share one capture configuration (CaptureConfig), since a
// job holds one stream.
//
// A plan with a timing pass runs the policy-free front end once per
// workload: inside the capture, which reads the trace through it
// (pipeline.Machine.Tee), or else alone over a fresh source.
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
		case p.Timing && p.Config.PrefetchDistance > 0:
			return nil, fmt.Errorf("sim: timing pass %q cannot prefetch", p.Scope)
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
// workload: a hash of every pass's scope, configuration, policy names,
// OPT row and timing flag (hashed only when set, so TLB-only keys are
// unchanged), under a format tag. A checkpoint row restores only into
// the plan that wrote it, and a row of the older one-job-per-suite-call
// format (keyed by the "+"-joined policy list) never matches.
func passesKey(passes []Pass) string {
	h := fnv.New64a()
	for _, p := range passes {
		fmt.Fprintf(h, "%q %+v %t", p.Scope, p.Config, p.OPT)
		if p.Timing {
			h.Write([]byte(" timing"))
		}
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
	front  *pipeline.Result // the front end's, once a timing pass needs it
}

// run measures every pass. If that fails — one broken policy errors
// or panics mid-run, which necessarily takes the whole job down — the
// job degrades to one run per cell, so every healthy cell still
// delivers its row and the error blames the precise cell, as per-cell
// scheduling would. The returned rows accompany the error; the engine
// keeps both. The job closes its stream, and with it the stream's
// store file, when it ends.
func (j *passJob) run(ctx context.Context) ([][]SuiteResult, error) {
	defer func() {
		if j.stream != nil {
			j.stream.Close()
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
		if p.Timing && j.front == nil {
			front, err := recovered(func() (*pipeline.Result, error) { return runFrontEnd(j.spec(p)) })
			if err != nil {
				blame(p, "front-end", err)
				continue
			}
			j.front = front
		}
		for k, f := range p.Policies {
			rs, err := recovered(func() ([]TLBOnlyResult, error) {
				return measureCells(ctx, j.spec(p), j.stream, cellsOf(p.Config, []tlb.Policy{f.New()}, []PolicyFactory{f.New}))
			})
			if err != nil {
				blame(p, f.Name, err)
				continue
			}
			rows[i][k] = j.row(p, f.Name, rs[0])
		}
		if p.OPT {
			res, err := recovered(func() (TLBOnlyResult, error) { return runOPT(ctx, j.spec(p), j.stream) })
			if err != nil {
				blame(p, "opt", err)
				continue
			}
			rows[i][len(p.Policies)] = j.row(p, "opt", res)
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

// all measures every pass over one fetch of the stream. Each pass's
// policies are built fresh up front; the cells of every pass a stream
// can drive then walk together in one block pass, less duplicate keys
// (replayCells), and the rest run direct.
func (j *passJob) all(ctx context.Context) ([][]SuiteResult, error) {
	ps := make([][]tlb.Policy, len(j.passes))
	replay, opt, timing := false, false, false
	for i, p := range j.passes {
		ps[i] = make([]tlb.Policy, len(p.Policies))
		for k, f := range p.Policies {
			ps[i][k] = f.New()
		}
		replay = replay || replayable(ps[i])
		opt = opt || p.OPT
		timing = timing || p.Timing
	}
	spec := j.spec(j.passes[0])
	var teed *pipeline.Machine // the front end a capture reads through
	if replay || opt {
		open := spec.open
		if timing {
			open = func() (trace.Source, error) {
				src, err := spec.open()
				if err != nil {
					return nil, err
				}
				if teed, err = newFrontEnd(spec.Config); err != nil {
					closeSource(src)
					return nil, err
				}
				return teed.Tee(src), nil
			}
		}
		var err error
		if j.stream, err = spec.stream(open); err != nil {
			return nil, err
		}
	}
	if timing {
		var err error
		if teed != nil && j.stream != nil {
			var front pipeline.Result
			front, err = teed.Finish()
			j.front = &front
		} else {
			j.front, err = runFrontEnd(spec)
		}
		if err != nil {
			return nil, err
		}
	}
	walked := make([]bool, len(j.passes))
	var cells []cell
	for i, p := range j.passes {
		if walked[i] = j.stream != nil && replayable(ps[i]); walked[i] {
			for k, f := range p.Policies {
				cells = append(cells, cell{cfg: p.Config, p: ps[i][k], fresh: f.New})
			}
			ps[i] = nil // replayCells takes them
		}
	}
	var rs []TLBOnlyResult
	if len(cells) > 0 {
		var err error
		if rs, err = replayCells(j.stream, cells); err != nil {
			return nil, err
		}
	}
	rows := make([][]SuiteResult, len(j.passes))
	for i, p := range j.passes {
		res := rs
		if walked[i] {
			res, rs = rs[:len(p.Policies)], rs[len(p.Policies):]
		} else {
			var err error
			if res, err = measureCells(ctx, j.spec(p), j.stream, cellsOf(p.Config, ps[i], nil)); err != nil {
				return nil, err
			}
		}
		rows[i] = make([]SuiteResult, 0, p.cells())
		for k, r := range res {
			rows[i] = append(rows[i], j.row(p, p.Policies[k].Name, r))
		}
		if p.OPT {
			r, err := runOPT(ctx, j.spec(p), j.stream)
			if err != nil {
				return nil, err
			}
			rows[i] = append(rows[i], j.row(p, "opt", r))
		}
	}
	return rows, nil
}

// spec is the RunSpec of pass p over the job's workload.
func (j *passJob) spec(p Pass) RunSpec {
	return RunSpec{Workload: j.w, Config: p.Config, Cache: j.cache}
}

// row labels one cell's result of pass p.
func (j *passJob) row(p Pass, policy string, res TLBOnlyResult) SuiteResult {
	res.Policy = policy
	r := SuiteResult{Workload: j.w.Name, Category: j.w.Category, Profile: j.profile, TLBOnlyResult: res}
	if p.Timing {
		r.FrontEnd = j.front
	}
	return r
}

// newFrontEnd assembles the policy-free front end of the Table II
// machine over cfg's TLB geometry, budget and warmup, with no walk
// penalty: SuiteResult.Timing adds that per row.
func newFrontEnd(cfg TLBOnlyConfig) (*pipeline.Machine, error) {
	pc := pipeline.DefaultConfig(cfg.Instructions, 0)
	pc.L1ITLB, pc.L1DTLB, pc.L2TLB = cfg.Hierarchy.L1I, cfg.Hierarchy.L1D, cfg.Hierarchy.L2
	pc.WarmupFraction = cfg.WarmupFraction
	return pipeline.New(pc, nil, func() tlb.Policy { return policy.NewLRU() })
}

// runFrontEnd runs the front end alone over a fresh source of spec's
// workload.
func runFrontEnd(spec RunSpec) (*pipeline.Result, error) {
	m, err := newFrontEnd(spec.Config)
	if err != nil {
		return nil, err
	}
	src, err := spec.open()
	if err != nil {
		return nil, err
	}
	defer closeSource(src)
	res, err := m.Run(src)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// RunSuiteTimingCtx measures each workload under each policy with the
// timing model at a flat walk penalty: RunSuiteTLBOnlyCtx's timing
// twin, its rows derived at walkPenalty (SuiteResult.Timing).
func RunSuiteTimingCtx(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, cfg TLBOnlyConfig, walkPenalty uint64, opts SuiteOptions) ([]TimingResult, error) {
	rows, err := RunPasses(ctx, ws, []Pass{{Scope: opts.Scope, Config: cfg, Policies: pols, Timing: true}}, opts)
	if rows == nil {
		return nil, err
	}
	out := make([]TimingResult, len(rows[0]))
	for i, r := range rows[0] {
		out[i] = TimingResult{Workload: r.Workload, Category: r.Category, Profile: r.Profile, Result: r.Timing(walkPenalty)}
	}
	return out, err
}

// engineConfig maps the suite options onto the engine's.
func (o SuiteOptions) engineConfig() engine.Config {
	return engine.Config{Workers: o.Workers, Sink: o.Sink, Checkpoint: o.Checkpoint}
}

// recovered runs f, converting a panic into an error carrying the
// panic value and stack — the engine's own recovery, applied inside a
// workload's job so a panic in one policy can be blamed on its cell
// instead of the whole job.
func recovered[T any](f func() (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &engine.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}
