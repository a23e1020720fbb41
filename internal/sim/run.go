package sim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// RunSpec bundles everything one TLB-only measurement needs. It is the
// single argument of Run, so the call sites read as configuration
// rather than positional plumbing, and new knobs never change the
// signature.
type RunSpec struct {
	// Workload supplies the trace source, the run's name and the
	// capture key (its Name and SpecHash). A recorded trace is a
	// workload too (workloads.TraceFile).
	Workload *workloads.Workload
	// Policy builds the L2 replacement policy under test.
	Policy PolicyFactory
	// Config is the TLB-only configuration (hierarchy, instruction
	// budget, warmup, prefetch distance).
	Config TLBOnlyConfig
	// Cache, when non-nil, selects the capture/replay path: the run
	// captures the workload's policy-invariant L2 event stream (or
	// loads it from a persistent cache's directory) and replays every
	// policy of the call over it — bit-identical to the direct path,
	// and much cheaper from the second policy on. The stream lives for
	// the one call; a suite (RunPasses) shares one across every pass of
	// a workload. When nil, the run drives the full trace directly.
	Cache *l2stream.Cache
}

// open returns a fresh bounded source for the spec. It may be called
// zero times (stream loaded from a capture directory), once per
// capture, or once per policy on the direct path; whoever opens it
// closes it with closeSource once the run or capture is done.
func (s *RunSpec) open() (trace.Source, error) {
	return trace.NewLimit(s.Workload.Source(), s.Config.Instructions), nil
}

// closeSource closes src when it holds a resource (a trace file, or a
// trace.Limit over one). Sources are read-only, so a close error
// cannot change a result and is dropped.
func closeSource(src trace.Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// stream returns the captured stream of spec's workload from
// spec.Cache, capturing from the source open returns (s.open, or a
// source teed into a timing front end). It is nil, with no error, when
// there is no cache or the capture was abandoned (over the cache's
// byte cap, or its staging file failed): the run then takes the direct
// path.
func (s *RunSpec) stream(open func() (trace.Source, error)) (*l2stream.Stream, error) {
	if s.Cache == nil {
		return nil, nil
	}
	stream, err := StreamFor(s.Cache, s.Workload.Name, s.Workload.SpecHash, s.Config, open)
	if errors.Is(err, l2stream.ErrAbandoned) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sim: capturing %s: %w", s.Workload.Name, err)
	}
	return stream, nil
}

// errZeroBudget rejects a run with no instruction budget: a workload's
// source is bounded by trace.NewLimit, which at zero yields nothing.
var errZeroBudget = errors.New("sim: a zero instruction budget simulates nothing")

// validate rejects specs that cannot run before any work starts.
// Policy is checked by Run alone: RunMulti takes its policies as a
// separate slice.
func (s *RunSpec) validate() error {
	switch {
	case s.Workload == nil:
		return errors.New("sim: RunSpec needs a Workload")
	case s.Config.Instructions == 0:
		return errZeroBudget
	}
	return nil
}

// Run is the one TLB-only entry point: it measures spec.Policy over
// spec's trace under spec.Config — a one-policy RunMulti, so it takes
// the capture/replay path when spec.Cache is set and the direct path
// otherwise. The two are bit-identical, so callers pick purely on
// cost. The context gates the start of the run (simulations are
// CPU-bound and finish in bounded time once started); suite drivers
// check it between jobs via the engine.
//
// On success the run's TLB and predictor counters are published to the
// default obs registry (see PublishMetrics on tlb.TLB and the policy
// implementations).
func Run(ctx context.Context, spec RunSpec) (TLBOnlyResult, error) {
	if spec.Policy == nil {
		return TLBOnlyResult{}, errors.New("sim: RunSpec.Policy is required")
	}
	rs, err := RunMulti(ctx, spec, []PolicyFactory{spec.Policy})
	if err != nil {
		return TLBOnlyResult{}, err
	}
	return rs[0], nil
}
