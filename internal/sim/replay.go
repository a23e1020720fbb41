package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"

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

// CaptureKey returns the stream-cache key for a workload under cfg.
// spec is the content hash of the workload spec the workload came from
// ("" for legacy suite workloads and trace files); it keeps captures
// from colliding across specs that reuse a workload name.
func CaptureKey(workload, spec string, cfg TLBOnlyConfig) l2stream.Key {
	return l2stream.Key{Workload: workload, Spec: spec, Config: CaptureConfig(cfg)}
}

// StreamFor returns the captured stream for a workload from cache,
// capturing it on first use. open must return a fresh bounded source
// for the workload (it is only called when the capture actually runs);
// the source is closed after the capture when it is an io.Closer. A
// capture over the cache's byte budget fails with
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

// StreamVPNs extracts the L2 demand-access VPN sequence from a
// captured stream — the input CollectL2Stream produces, without
// re-running the generator and L1 filters. It reads the memoized
// access view, so a replay of the same stream under the same L2
// geometry reuses the view build.
func StreamVPNs(stream *l2stream.Stream, cfg TLBOnlyConfig) ([]uint64, error) {
	if got, want := stream.Config(), CaptureConfig(cfg); got != want {
		return nil, fmt.Errorf("sim: stream captured under %+v cannot serve %+v", got, want)
	}
	av, err := accessViewFor(stream, cfg.l2Sets())
	if err != nil {
		return nil, err
	}
	// The view is shared read-only; the caller gets its own copy.
	return slices.Clone(av.vpn), nil
}

// RunOPT measures the offline Bélády optimum over spec's trace. The
// oracle needs the whole L2 demand-access sequence before the run
// starts, so RunOPT collects it first (optSequence) and then runs OPT
// through RunMulti, which replays the cached stream or, without a
// usable one, runs RunTLBOnly over a fresh source. spec.Policy is
// ignored.
func RunOPT(ctx context.Context, spec RunSpec) (TLBOnlyResult, error) {
	if err := spec.validate(); err != nil {
		return TLBOnlyResult{}, err
	}
	vpns, err := optSequence(spec)
	if err != nil {
		return TLBOnlyResult{}, err
	}
	rs, err := RunMulti(ctx, spec, []PolicyFactory{func() tlb.Policy { return newOPT(vpns) }})
	if err != nil {
		return TLBOnlyResult{}, err
	}
	return rs[0], nil
}

// optSequence returns the L2 demand-access VPN sequence of spec's
// trace: from the captured stream's access view when the cache holds
// the stream, and by CollectL2Stream over a fresh source when there is
// no cache or the capture is over its budget.
func optSequence(spec RunSpec) ([]uint64, error) {
	if spec.Cache != nil {
		stream, err := StreamFor(spec.Cache, spec.name(), spec.specHash(), spec.Config, spec.open)
		if err == nil {
			return StreamVPNs(stream, spec.Config)
		}
		if !errors.Is(err, l2stream.ErrOverBudget) {
			return nil, fmt.Errorf("sim: capturing %s: %w", spec.name(), err)
		}
	}
	src, err := spec.open()
	if err != nil {
		return nil, err
	}
	defer closeSource(src)
	return CollectL2Stream(src, spec.Config)
}

// newOPT wraps the offline optimal policy around a pre-collected L2
// access stream.
func newOPT(vpns []uint64) tlb.Policy {
	return policy.NewOPT(policy.BuildOracle(vpns))
}
