package l2stream

import (
	"errors"
	"io"
	"time"

	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/trace"
)

// Cache metrics in the default registry. Captures are rare (once per
// workload job) and already pay a full trace pass, so instrumenting
// them directly costs nothing measurable. A GetOrCaptureFrom call that
// ran the capture is a miss; disk hits are captures avoided entirely
// by loading a previous process's persisted stream from the capture
// directory.
var (
	obsCacheMisses = obs.Default.Counter("chirp_l2stream_cache_misses_total",
		"GetOrCaptureFrom calls that ran a capture.")
	obsCacheDiskHits = obs.Default.Counter("chirp_l2stream_cache_disk_hits_total",
		"GetOrCaptureFrom calls served by loading a persisted capture from the capture directory.")
	obsCacheDiskWrites = obs.Default.Counter("chirp_l2stream_cache_disk_writes_total",
		"Captures persisted to the capture directory.")
	obsCacheDiskErrors = obs.Default.Counter("chirp_l2stream_cache_disk_errors_total",
		"Failed store reads, staging files or store writes (the run recaptures, takes the direct path, or goes on without the file).")
	obsCacheOverBudget = obs.Default.Counter("chirp_l2stream_cache_spills_total",
		"Captures abandoned because their encoded buffer exceeded the byte budget (those runs take the direct path).")
	// Registered and never incremented: nothing is evicted from memory
	// any more, but the benchmark harness (bench/traced.go) resolves
	// this counter by name and fails when it is missing.
	_ = obs.Default.Counter("chirp_l2stream_cache_evictions_total",
		"Always 0: streams are no longer held in memory, so none is evicted.")
	obsCaptureSeconds = obs.Default.Histogram("chirp_l2stream_capture_seconds",
		"Wall time of each capture pass.", obs.DurationBuckets())
	obsDerivedBuilds = obs.Default.Counter("chirp_l2stream_derived_builds_total",
		"Derived views computed from stream events (sidecar absent or not persisted).")
	obsDecodePasses = obs.Default.Counter("chirp_l2stream_decode_passes_total",
		"Passes over a stream's encoded events (Stream.Decode calls): replays build their missing derived views in one.")
	obsDerivedDiskHits = obs.Default.Counter("chirp_l2stream_derived_disk_hits_total",
		"Derived views loaded from persisted sidecars instead of being recomputed.")
	obsDerivedDiskWrites = obs.Default.Counter("chirp_l2stream_derived_disk_writes_total",
		"Derived-view sidecars persisted to the capture directory.")
	obsDerivedCorrupt = obs.Default.Counter("chirp_l2stream_derived_corrupt_total",
		"Derived-view sidecars rejected as corrupt, truncated, or stale (the view is recomputed).")
	obsStoreEvictions = obs.Default.Counter("chirp_l2stream_store_evictions_total",
		"Capture groups (stream plus sidecars) evicted from persistent capture directories by the size-budget GC.")
	obsStoreBytes = obs.Default.Gauge("chirp_l2stream_store_bytes",
		"Bytes currently held in persistent capture directories, as of the last GC scan.")
)

// DefaultBudget is the default per-capture byte cap.
const DefaultBudget int64 = 256 << 20

// Key identifies a captured stream: the workload name plus the
// policy-invariant capture configuration. It names the stream's files
// in the persistent capture directory.
type Key struct {
	Workload string
	// Spec is the content hash of the workload spec the workload was
	// compiled from ("" for legacy suite workloads and trace files).
	// It enters the fingerprint, so two specs that agree on a
	// workload's name but differ anywhere in content — one client's
	// rate fraction included — can never alias each other's persistent
	// captures.
	Spec   string
	Config Config
}

// Cache is where streams come from: a per-capture byte cap, plus an
// optional content-addressed capture directory (NewPersistent; see
// store) whose files later caches — in this process or another — load
// instead of re-capturing. It keeps no stream in memory: every
// GetOrCaptureFrom call returns a stream the caller owns, so a caller that
// walks one stream several times holds on to it (sim.RunPasses holds
// one per workload job). A Cache is safe for concurrent use.
type Cache struct {
	budget int64
	store  *store
}

// NewCache returns a cache whose captures may encode at most budget
// bytes (<= 0 means DefaultBudget); a capture over it fails with
// ErrOverBudget. Its captures stage into unnamed temporary files in
// os.TempDir, as Capture does.
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Cache{budget: budget}
}

// NewPersistent returns a cache backed by a persistent capture
// directory: every capture is written there (content-addressed by key
// fingerprint + codec version, staged and atomically renamed), and
// GetOrCaptureFrom consults the directory before capturing, so sweeps
// across processes reuse captures instead of re-capturing.
func NewPersistent(budget int64, captureDir string) (*Cache, error) {
	st, err := newStore(captureDir)
	if err != nil {
		return nil, err
	}
	c := NewCache(budget)
	c.store = st
	return c, nil
}

// Budget returns the cache's per-capture byte cap.
func (c *Cache) Budget() int64 { return c.budget }

// GetOrCaptureFrom returns key's stream: loaded from the capture
// directory when the cache has one holding a valid file for key, and
// otherwise captured under key.Config from the source open returns,
// which is closed afterwards when it is an io.Closer. The capture
// writes its events straight into a staging file, chunk by chunk, so
// it holds one encoder chunk in memory, and the stream is that file:
// renamed into the capture directory when the cache has one, and
// otherwise an unnamed temporary file. The staging file is removed
// when the capture goes over the byte cap, fails or panics. A failed
// capture's error is returned as is: ErrOverBudget counts an
// over-budget capture, any other ErrAbandoned (a staging file that
// cannot be created, written or renamed) a disk error. A panicking
// capture's panic reaches the caller. Either way the next call
// captures again.
func (c *Cache) GetOrCaptureFrom(key Key, open func() (trace.Source, error)) (*Stream, error) {
	if s := c.load(key); s != nil {
		return s, nil
	}
	obsCacheMisses.Inc()
	start := time.Now()
	defer func() { obsCaptureSeconds.Observe(time.Since(start).Seconds()) }()
	s, err := c.capture(key, open)
	switch {
	case errors.Is(err, ErrOverBudget):
		obsCacheOverBudget.Inc()
	case errors.Is(err, ErrAbandoned):
		obsCacheDiskErrors.Inc()
	case err == nil && c.store != nil:
		obsCacheDiskWrites.Inc()
	}
	return s, err
}

// capture runs GetOrCaptureFrom's capture into a staging file in the
// cache's store, or an unnamed one without a store.
func (c *Cache) capture(key Key, open func() (trace.Source, error)) (*Stream, error) {
	w, err := stage(c.store)
	if err != nil {
		return nil, err
	}
	defer w.discard()
	src, err := open()
	if err != nil {
		return nil, err
	}
	if cl, ok := src.(io.Closer); ok {
		defer cl.Close()
	}
	return capture(src, key, c.budget, w)
}

// load returns key's stream from the capture directory, or nil.
func (c *Cache) load(key Key) *Stream {
	if c.store == nil {
		return nil
	}
	s, err := c.store.load(key)
	if err != nil {
		obsCacheDiskErrors.Inc() // degrade to a recapture
	}
	if s != nil {
		obsCacheDiskHits.Inc()
	}
	return s
}

// SetStoreMaxBytes bounds the persistent capture directory's total
// size: after every store write, least-recently-used capture groups
// (the .l2s stream plus its .l2d derived sidecars) are
// evicted oldest-mtime-first until the directory fits. Zero or
// negative means unbounded. No-op on caches without a persistent tier.
func (c *Cache) SetStoreMaxBytes(maxBytes int64) {
	if c.store != nil {
		c.store.setLimit(maxBytes)
	}
}

// Close does nothing: the cache holds no stream and no open file. It
// is kept because the benchmark harness (bench/traced.go) still calls
// it.
func (c *Cache) Close() {}
