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
// loaded from its capture directory, or captured. open must return a
// fresh bounded source for the workload (it is only called when the
// capture actually runs); the source is closed after the capture when
// it is an io.Closer. A capture over the cache's byte cap fails with
// l2stream.ErrOverBudget; RunMulti and RunOPT then take the direct
// path.
func StreamFor(cache *l2stream.Cache, workload, spec string, cfg TLBOnlyConfig, open func() (trace.Source, error)) (*l2stream.Stream, error) {
	return cache.GetOrCapture(CaptureKey(workload, spec, cfg), func(maxBytes int64) (*l2stream.Stream, error) {
		src, err := open()
		if err != nil {
			return nil, err
		}
		defer closeSource(src)
		return l2stream.Capture(src, CaptureConfig(cfg), maxBytes)
	})
}

// RunOPT measures the offline Bélády optimum over spec's trace. The
// oracle needs the whole L2 demand-access sequence before the run
// starts, so RunOPT collects it first and then runs OPT the way
// RunMulti runs a policy: over the captured stream or, without a usable
// one, with RunTLBOnly over a fresh source. spec.Policy is ignored.
func RunOPT(ctx context.Context, spec RunSpec) (TLBOnlyResult, error) {
	if err := spec.validate(); err != nil {
		return TLBOnlyResult{}, err
	}
	stream, err := spec.stream()
	if err != nil {
		return TLBOnlyResult{}, err
	}
	return runOPT(ctx, spec, stream)
}

// runOPT is RunOPT over a stream already resolved (nil for the direct
// path). The demand-access VPN sequence comes from the stream's
// memoized access-view column, which the oracle only reads, or from
// CollectL2Stream over a fresh source.
func runOPT(ctx context.Context, spec RunSpec, stream *l2stream.Stream) (TLBOnlyResult, error) {
	var vpns []uint64
	if stream != nil {
		av, err := accessViewFor(stream)
		if err != nil {
			return TLBOnlyResult{}, err
		}
		vpns = av.vpn
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
	rs, err := measure(ctx, spec, stream, []tlb.Policy{newOPT(vpns)})
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
