package sim

import (
	"context"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
)

// CaptureConfig projects a TLB-only configuration onto its
// policy-invariant part — everything above the L2 policy boundary.
// Runs whose CaptureConfigs are equal share one captured stream, no
// matter which L2 policy, L2 geometry (beyond the page size), or
// prefetch distance they use.
func CaptureConfig(cfg TLBOnlyConfig) l2stream.Config {
	return l2stream.Config{
		L1I:            cfg.Hierarchy.L1I,
		L1D:            cfg.Hierarchy.L1D,
		PageShift:      cfg.Hierarchy.L2.PageShift,
		Instructions:   cfg.Instructions,
		WarmupFraction: cfg.WarmupFraction,
	}
}

// CaptureKey returns the capture key for a workload under cfg.
// spec is the content hash of the workload spec the workload came from
// ("" for legacy suite workloads and trace files); it keeps captures
// from colliding across specs that reuse a workload name.
func CaptureKey(workload, spec string, cfg TLBOnlyConfig) l2stream.Key {
	return l2stream.Key{Workload: workload, Spec: spec, Config: CaptureConfig(cfg)}
}

// StreamFor returns the captured stream for a workload from cache:
// loaded from its capture directory, or captured into a file (the
// directory's staging file when the cache has one, an unnamed
// temporary file otherwise). open must return a fresh bounded source
// for the workload (it is only called when the capture actually runs);
// the source is closed after the capture when it is an io.Closer. A
// capture over the cache's byte cap, or one whose staging file fails,
// fails with l2stream.ErrAbandoned; RunMulti and RunPasses then take
// the direct path.
func StreamFor(cache *l2stream.Cache, workload, spec string, cfg TLBOnlyConfig, open func() (trace.Source, error)) (*l2stream.Stream, error) {
	return cache.GetOrCaptureFrom(CaptureKey(workload, spec, cfg), open)
}

// runOPT measures the offline Bélády optimum over spec's trace. The
// oracle needs the whole L2 demand-access sequence before the run
// starts, so runOPT collects it first and then runs OPT the way
// RunMulti runs a policy: over stream or, with a nil stream (no cache,
// or a capture over the cap), with RunTLBOnly over a fresh source. The
// demand-access VPN sequence comes from a block pass over the stream's
// access columns (streamVPNs), or from CollectL2Stream over a fresh
// source. spec.Policy is ignored.
func runOPT(ctx context.Context, spec RunSpec, stream *l2stream.Stream) (TLBOnlyResult, error) {
	var vpns []uint64
	if stream != nil {
		var err error
		if vpns, err = streamVPNs(stream); err != nil {
			return TLBOnlyResult{}, err
		}
	} else {
		src, err := spec.open()
		if err != nil {
			return TLBOnlyResult{}, err
		}
		vpns, err = CollectL2Stream(src, spec.Config)
		closeSource(src)
		if err != nil {
			return TLBOnlyResult{}, err
		}
	}
	opt := func() tlb.Policy { return newOPT(vpns) }
	rs, err := measureCells(ctx, spec, stream, cellsOf(spec.Config, []tlb.Policy{opt()}, []PolicyFactory{opt}))
	if err != nil {
		return TLBOnlyResult{}, err
	}
	return rs[0], nil
}

// newOPT wraps the offline optimal policy around a pre-collected L2
// access stream.
func newOPT(vpns []uint64) tlb.Policy {
	return policy.NewOPT(policy.BuildOracle(vpns))
}
