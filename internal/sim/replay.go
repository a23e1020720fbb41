package sim

import (
	"fmt"
	"slices"

	"github.com/chirplab/chirp/internal/l2stream"
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
// the source is closed after the capture when it is an io.Closer.
func StreamFor(cache *l2stream.Cache, workload, spec string, cfg TLBOnlyConfig, open func() (trace.Source, error)) (*l2stream.Stream, error) {
	return cache.GetOrCapture(CaptureKey(workload, spec, cfg), func(opts l2stream.CaptureOptions) (*l2stream.Stream, error) {
		src, err := open()
		if err != nil {
			return nil, err
		}
		defer closeSource(src)
		return l2stream.Capture(src, CaptureConfig(cfg), opts)
	})
}

// StreamVPNs extracts the L2 demand-access VPN sequence from a
// captured stream — the input CollectL2Stream produces, without
// re-running the generator and L1 filters. It reads the memoized
// access view, so a replay of the same stream under the same L2
// geometry reuses the view build. Spilled streams fall back to
// CollectL2Stream over the spill file.
func StreamVPNs(stream *l2stream.Stream, cfg TLBOnlyConfig) ([]uint64, error) {
	if got, want := stream.Config(), CaptureConfig(cfg); got != want {
		return nil, fmt.Errorf("sim: stream captured under %+v cannot serve %+v", got, want)
	}
	if stream.Spilled() {
		path, release, err := stream.RetainSpill()
		if err != nil {
			return nil, err
		}
		defer release()
		fs, err := trace.OpenFile(path)
		if err != nil {
			return nil, fmt.Errorf("sim: opening spilled stream: %w", err)
		}
		defer fs.Close()
		return CollectL2Stream(fs, cfg)
	}
	av, err := accessViewFor(stream, cfg.l2Sets())
	if err != nil {
		return nil, err
	}
	// The view is shared read-only; the caller gets its own copy.
	return slices.Clone(av.vpn), nil
}
