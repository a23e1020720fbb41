package l2stream

import (
	"errors"
	"sync"
	"time"

	"github.com/chirplab/chirp/internal/obs"
)

// Cache metrics in the default registry. Captures are rare (once per
// (workload, config) per cache) and already pay a full trace pass, so
// instrumenting them directly costs nothing measurable. The gauges
// accumulate additively, so several live caches report their combined
// residency.
//
// Hit accounting is honest about latency: a GetOrCapture call that
// found a finished stream is a hit; a call that ran the capture is a
// miss; a call that blocked on another goroutine's in-flight capture
// paid full capture latency and counts as a wait — not a hit — so the
// hit ratio in run manifests reflects what callers actually
// experienced. Disk hits are captures avoided entirely by loading a
// previous process's persisted stream from the capture directory.
var (
	obsCacheHits = obs.Default.Counter("chirp_l2stream_cache_hits_total",
		"GetOrCapture calls served from an already-captured stream.")
	obsCacheMisses = obs.Default.Counter("chirp_l2stream_cache_misses_total",
		"GetOrCapture calls that ran a capture.")
	obsCacheWaits = obs.Default.Counter("chirp_l2stream_cache_waits_total",
		"GetOrCapture calls that blocked on another goroutine's in-flight capture.")
	obsCacheDiskHits = obs.Default.Counter("chirp_l2stream_cache_disk_hits_total",
		"GetOrCapture calls served by loading a persisted capture from the capture directory.")
	obsCacheDiskWrites = obs.Default.Counter("chirp_l2stream_cache_disk_writes_total",
		"Captures persisted to the capture directory.")
	obsCacheDiskErrors = obs.Default.Counter("chirp_l2stream_cache_disk_errors_total",
		"Failed persistent-store reads or writes (the run continues on the in-memory tier).")
	obsCacheOverBudget = obs.Default.Counter("chirp_l2stream_cache_spills_total",
		"Captures abandoned because their encoded buffer exceeded the byte budget (those runs take the direct path).")
	obsCacheEvictions = obs.Default.Counter("chirp_l2stream_cache_evictions_total",
		"In-memory streams evicted to hold the byte budget.")
	obsCaptureSeconds = obs.Default.Histogram("chirp_l2stream_capture_seconds",
		"Wall time of each capture pass.", obs.DurationBuckets())
	obsCacheBytes = obs.Default.Gauge("chirp_l2stream_cache_bytes",
		"In-memory bytes currently accounted to stream caches.")
	obsCacheStreams = obs.Default.Gauge("chirp_l2stream_cache_streams",
		"Captured streams currently resident in stream caches.")
	obsDerivedBuilds = obs.Default.Counter("chirp_l2stream_derived_builds_total",
		"Derived views computed from stream events (sidecar absent or not persisted).")
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

// DefaultBudget is the cache's default in-memory byte budget: large
// enough to hold hundreds of suite-sized streams, small next to the
// working memory an 870-workload sweep already uses.
const DefaultBudget int64 = 256 << 20

// Key identifies a cached stream: the workload name plus the
// policy-invariant capture configuration. Comparable, so it indexes
// the cache map directly.
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

// Cache memoises captured streams under an LRU byte budget, with
// single-flight capture: concurrent GetOrCapture calls for the same
// key run the capture once and share the result — exactly the shape
// the engine produces, since it dispatches a workload's jobs to
// different workers back to back.
//
// Each resident stream is charged the bytes it actually holds: its
// encoded event buffer at commit (Stream.FootprintBytes), plus each
// derived view at its real size as replays materialize it (the growth
// hook commit installs). A capture whose encoded buffer alone exceeds
// the whole budget is abandoned with ErrOverBudget, and the cache
// remembers that outcome for the key, so no later caller repeats the
// doomed capture.
//
// A cache built with NewPersistent additionally keeps a
// content-addressed on-disk tier (see store): captures are persisted
// under their key fingerprint, and later caches — including ones in
// other processes, on other days — load those files instead of
// re-capturing.
//
// Evicting a stream only drops the cache's reference — replays already
// holding the stream keep working, and the bytes are reclaimed when
// they finish.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	store   *store
	used    int64
	tick    uint64
	entries map[Key]*cacheEntry
}

// cacheEntry is one single-flight slot. The owning goroutine (the one
// that created the entry) runs the capture, publishes stream/err, and
// closes done; everyone else blocks on done. A failed capture deletes
// the entry from the map before closing done, so woken waiters—and
// any caller that read the entry just before the failure—re-check the
// map and retry instead of inheriting the memoized error forever. The
// one exception is ErrOverBudget: a recapture would overflow again, so
// that entry stays and every caller gets the error back.
type cacheEntry struct {
	done    chan struct{} // closed once stream/err below are final
	stream  *Stream
	err     error
	lastUse uint64
	bytes   int64
	ready   bool // capture succeeded; stream is resident
}

// NewCache returns a cache with the given in-memory byte budget
// (<= 0 means DefaultBudget). Captures whose encoded buffer would
// exceed the whole budget on its own fail with ErrOverBudget.
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Cache{budget: budget, entries: map[Key]*cacheEntry{}}
}

// NewPersistent returns a cache backed by a persistent capture
// directory: every capture is also written there (content-addressed
// by key fingerprint + codec version, staged and atomically renamed),
// and GetOrCapture consults the directory before capturing, so sweeps
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

// Budget returns the cache's in-memory byte budget.
func (c *Cache) Budget() int64 { return c.budget }

// GetOrCapture returns the cached stream for key, running capture
// (once, even under concurrent callers) to produce it on first use.
// capture receives the cache's byte budget to pass on to Capture. A
// failed capture is not cached: every caller that observed the failure
// — including ones that were already blocked on it — retries through a
// fresh entry. ErrOverBudget is the exception: it is remembered for
// key, and every later caller gets it back without a recapture.
func (c *Cache) GetOrCapture(key Key, capture func(maxBytes int64) (*Stream, error)) (*Stream, error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &cacheEntry{done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			return c.runCapture(key, e, capture)
		}
		c.mu.Unlock()

		select {
		case <-e.done:
			// Finished before this caller arrived: a plain hit (or a
			// failure memo, handled below).
			if e.err == nil {
				obsCacheHits.Inc()
			}
		default:
			// In flight: this caller pays the full capture latency, so
			// it is a wait, not a hit.
			obsCacheWaits.Inc()
			<-e.done
		}
		if errors.Is(e.err, ErrOverBudget) {
			return nil, e.err
		}
		if e.err != nil {
			// The owner deleted the failed entry before closing done;
			// loop to re-check the map and retry (or join a retry
			// already in flight).
			continue
		}
		c.mu.Lock()
		c.tick++
		e.lastUse = c.tick
		c.mu.Unlock()
		return e.stream, nil
	}
}

// runCapture is the owning goroutine's path: load from the persistent
// tier if one is attached, capture otherwise, publish the outcome,
// and wake the waiters. stream/err are published before done is
// closed, so waiters may read them without the lock.
func (c *Cache) runCapture(key Key, e *cacheEntry, capture func(maxBytes int64) (*Stream, error)) (*Stream, error) {
	defer close(e.done)
	if c.store != nil {
		s, err := c.store.load(key)
		if err != nil {
			obsCacheDiskErrors.Inc() // degrade to a recapture
		}
		if s != nil {
			obsCacheDiskHits.Inc()
			c.commit(key, e, s)
			return s, nil
		}
	}

	obsCacheMisses.Inc()
	start := time.Now()
	s, err := capture(c.budget)
	obsCaptureSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		overBudget := errors.Is(err, ErrOverBudget)
		if overBudget {
			obsCacheOverBudget.Inc()
		}
		c.mu.Lock()
		e.err = err
		// Drop the failed entry so every later (and currently waiting)
		// caller retries against a fresh one — unless the capture is
		// over budget, which a retry would only repeat.
		if !overBudget && c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, err
	}
	if c.store != nil {
		if serr := c.store.save(key, s); serr != nil {
			obsCacheDiskErrors.Inc()
		} else {
			obsCacheDiskWrites.Inc()
		}
	}
	c.commit(key, e, s)
	return s, nil
}

// commit publishes a successful capture (or persisted-tier load) into
// the entry, accounts its footprint, and rebalances the budget.
func (c *Cache) commit(key Key, e *cacheEntry, s *Stream) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Derived views materialize after commit (first replay builds or
	// loads them); the hook folds their bytes into this entry so the
	// budget keeps holding. Installed under c.mu, before any other
	// goroutine can observe the entry as ready.
	s.SetGrowthHook(func(delta int64) { c.growStream(key, s, delta) })
	e.stream = s
	e.ready = true
	e.bytes = s.FootprintBytes()
	c.used += e.bytes
	obsCacheBytes.Add(e.bytes)
	obsCacheStreams.Inc()
	c.evictLocked(e)
	c.tick++
	e.lastUse = c.tick
}

// growStream accounts a late footprint increase of a committed stream
// (a derived view materializing) and rebalances the budget. A stream
// already evicted from the cache is no longer accounted at all, so its
// growth is ignored — the bytes die with the replays holding it.
func (c *Cache) growStream(key Key, s *Stream, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.stream != s {
		return
	}
	e.bytes += delta
	c.used += delta
	obsCacheBytes.Add(delta)
	// Unlike commit, the grown entry itself is evictable: the replays
	// that triggered the growth hold their own stream reference, and a
	// view that alone blew the budget must not pin the cache over it.
	c.evictLocked(nil)
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

// evictLocked drops least-recently-used completed in-memory entries
// until the budget holds again. keep, when non-nil, is never evicted
// (it is the entry that just finished capturing and is about to be
// returned).
func (c *Cache) evictLocked(keep *cacheEntry) {
	for c.used > c.budget {
		var victimKey Key
		var victim *cacheEntry
		for k, e := range c.entries {
			if e == keep || !e.ready || e.bytes == 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return // nothing evictable; a single oversized stream stays
		}
		c.used -= victim.bytes
		obsCacheBytes.Add(-victim.bytes)
		obsCacheStreams.Dec()
		obsCacheEvictions.Inc()
		delete(c.entries, victimKey)
	}
}

// Len returns the number of resident streams (including in-flight
// captures and remembered over-budget keys). For tests and telemetry.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Used returns the in-memory bytes currently accounted to the cache.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Close drops every entry and resets the byte accounting. Replays
// still holding a stream keep working. It is not safe to race Close
// with GetOrCapture.
func (c *Cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	resident := int64(0)
	for _, e := range c.entries {
		if e.ready {
			resident++
		}
	}
	obsCacheBytes.Add(-c.used)
	obsCacheStreams.Add(-resident)
	c.entries = map[Key]*cacheEntry{}
	c.used = 0
}
