package chirp

import (
	"context"

	"github.com/chirplab/chirp/internal/adaline"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/sim"
)

// Simulation entry point. RunSpec and Run are the preferred surface
// for single measurements; MeasureMPKI remains as the minimal one-line
// convenience.
type (
	// RunSpec bundles one TLB-only measurement: workload or source,
	// policy factory, configuration, and an optional stream cache that
	// switches Run onto the capture/replay path.
	RunSpec = sim.RunSpec
	// TLBOnlyConfig parameterises TLB-only runs (hierarchy, instruction
	// budget, warmup fraction, prefetch distance).
	TLBOnlyConfig = sim.TLBOnlyConfig
	// PolicyFactory builds a fresh policy instance per run.
	PolicyFactory = sim.PolicyFactory
	// NamedFactory pairs a display name with a PolicyFactory.
	NamedFactory = sim.NamedFactory
	// SuiteOptions carries the cross-cutting controls of a suite run
	// (workers, telemetry sink, checkpoint, stream cache). A nil
	// StreamCache runs every cell on the direct RunTLBOnly path; pass
	// NewStreamCache's cache to capture once and replay.
	SuiteOptions = sim.SuiteOptions
	// SuiteResult is one (workload, policy) suite measurement.
	SuiteResult = sim.SuiteResult
	// StreamCache memoises captured L2 event streams across runs.
	StreamCache = l2stream.Cache
	// ReuseSample is one completed L2 TLB entry lifetime (inserting PC,
	// reused before eviction?) — the offline-learning training example.
	ReuseSample = sim.ReuseSample
)

// Run is the context-first simulation entry point: it measures
// spec.Policy over spec's trace, replaying a captured stream when
// spec.Cache is set and driving the trace directly otherwise (the two
// paths are bit-identical).
func Run(ctx context.Context, spec RunSpec) (MPKIResult, error) { return sim.Run(ctx, spec) }

// RunSuite measures each workload under each policy with the TLB-only
// driver across a worker pool: through opts.StreamCache's
// capture/replay path when it is set, on the direct path when it is
// nil (the two are bit-identical). A workload's job drops its stream
// from the cache when it ends, so an in-memory cache does not carry
// streams from one call to the next. See SuiteOptions for
// cancellation, checkpointing and the stream's lifetime.
func RunSuite(ctx context.Context, ws []*Workload, pols []NamedFactory, cfg TLBOnlyConfig, opts SuiteOptions) ([]SuiteResult, error) {
	return sim.RunSuiteTLBOnlyCtx(ctx, ws, pols, cfg, opts)
}

// DefaultTLBOnlyConfig returns the paper's Table II setup at the given
// instruction budget (warmup on the first half).
func DefaultTLBOnlyConfig(instructions uint64) TLBOnlyConfig {
	return sim.DefaultTLBOnlyConfig(instructions)
}

// Factories resolves registered policy names into NamedFactory values.
func Factories(names []string) ([]NamedFactory, error) { return sim.Factories(names) }

// NewStreamCache builds a stream cache with the given in-memory byte
// budget (<= 0 = 256 MiB). A workload whose capture would exceed the
// budget runs on the direct path instead, with identical results.
func NewStreamCache(budget int64) *StreamCache { return l2stream.NewCache(budget) }

// CollectReuseSamples harvests up to max completed L2-entry lifetimes
// (0 = unbounded) from src under LRU replacement — the training set of
// the paper's offline ADALINE study.
func CollectReuseSamples(src Source, cfg TLBOnlyConfig, max int) ([]ReuseSample, error) {
	return sim.CollectReuseSamples(src, cfg, max)
}

// Observability. Every simulation layer publishes into one default
// metrics registry; these re-exports expose it without importing the
// internal obs package.
type (
	// MetricsRegistry is a set of named counters, gauges and histograms
	// with snapshot/delta semantics and Prometheus/JSON exporters.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time flat view of a registry.
	MetricsSnapshot = obs.Snapshot
	// Manifest appends a JSONL run manifest: a run-identity header, one
	// line per completed job with metric deltas, and closing totals.
	Manifest = obs.Manifest
)

// Metrics returns the process-wide default registry that the TLB,
// predictor, stream-cache and engine layers publish into.
func Metrics() *MetricsRegistry { return obs.Default }

// ServeMetrics serves /metrics (Prometheus text format), /debug/vars
// (JSON) and /debug/pprof for the default registry on addr, returning
// the bound address and a stop function.
func ServeMetrics(addr string) (string, func() error, error) { return obs.Serve(addr, obs.Default) }

// OpenManifest appends a run manifest for the default registry to
// path; config is the caller's run fingerprint, recorded and hashed in
// the header.
func OpenManifest(path, config string) (*Manifest, error) {
	return obs.OpenManifest(path, obs.Default, config)
}

// Offline learning (the §III-A ADALINE study).
type (
	// Adaline is the adaptive linear neuron of the paper's feature
	// study.
	Adaline = adaline.Adaline
	// AdalineConfig parameterises it.
	AdalineConfig = adaline.Config
)

// NewAdaline builds an ADALINE.
func NewAdaline(cfg AdalineConfig) *Adaline { return adaline.New(cfg) }

// EncodePCBits maps pc's bits [firstBit, firstBit+n) onto a ±1 input
// vector for ADALINE training.
func EncodePCBits(pc uint64, firstBit, n int) []float64 {
	return adaline.EncodePCBits(pc, firstBit, n)
}
