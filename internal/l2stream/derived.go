// Derived views: per-stream precomputed arrays that are pure functions
// of the captured event stream plus a small configuration key — set
// indices for a TLB geometry, folded predictor signature sequences,
// prefetch fill schedules. They are memoized on the stream (single-
// flight), charged to the owning cache's byte budget at their real
// size as they materialize, and — when the stream belongs to a persistent
// capture store — persisted as content-addressed sidecar files so warm
// sweeps across processes skip the computation entirely.
//
// The l2stream package stays agnostic about what a derived view
// contains: builders and codecs live with their consumers (internal/
// sim), which hands them in as a DerivedSpec. This package owns the
// cross-cutting mechanics only — memoization, concurrency, budget
// accounting, and the sidecar load/store protocol.
package l2stream

import "sync"

// DerivedSpec describes one derived-view family to Stream.Derived: an
// invalidation key, a builder, and an optional persistence codec.
//
// Key must change whenever the view's contents would: it should embed
// the family name, a format version, and every configuration input the
// view depends on (TLB geometry, predictor history configuration,
// prefetch distance, …). Streams never compare keys semantically —
// distinct keys are distinct views.
type DerivedSpec struct {
	// Key is the full invalidation key (family + version + config).
	Key string
	// Build computes the view from the stream's events. It runs at
	// most once per (stream, key) and may use the stream's decoders
	// freely (Stream.Decode; block-decode with NextBlock or
	// NextAccessBlock); the stream is immutable underneath it.
	Build func(s *Stream) (view any, err error)
	// Bytes reports the view's in-memory footprint for cache budget
	// accounting.
	Bytes func(view any) int64
	// Encode serializes the view for the persistent sidecar tier; nil
	// means the family is never persisted.
	Encode func(view any) []byte
	// Decode deserializes and validates a sidecar payload. ok=false
	// means the payload is corrupt or stale, in which case the view is
	// rebuilt (and the sidecar atomically replaced). nil means sidecar
	// loads are skipped even if a file exists.
	Decode func(s *Stream, data []byte) (view any, ok bool)
}

// derivedSlot is one single-flight memo cell: the first Derived call
// for a key populates it under once; everyone else shares the result.
type derivedSlot struct {
	once sync.Once
	view any
	err  error
}

// Derived returns the stream's memoized derived view for spec,
// building it on first use: the persistent sidecar tier is consulted
// first (when the stream belongs to a capture store and the spec has a
// codec), then Build runs and the result is persisted for the next
// process. Concurrent calls for one key share a single build. The
// returned view is shared between every caller and MUST be treated as
// read-only.
func (s *Stream) Derived(spec *DerivedSpec) (any, error) {
	s.derivedMu.Lock()
	if s.derived == nil {
		s.derived = make(map[string]*derivedSlot)
	}
	slot, ok := s.derived[spec.Key]
	if !ok {
		slot = &derivedSlot{}
		s.derived[spec.Key] = slot
	}
	s.derivedMu.Unlock()

	slot.once.Do(func() {
		if s.dvLoad != nil && spec.Decode != nil {
			if data, release := s.dvLoad(spec.Key); data != nil {
				v, ok := spec.Decode(s, data)
				// Decode copies what it keeps, so the payload buffer can
				// go back to its pool before the view is even installed.
				if release != nil {
					release()
				}
				if ok {
					obsDerivedDiskHits.Inc()
					slot.view = v
					s.noteGrowth(spec.Bytes(v))
					return
				}
				// A sidecar that parsed at the store layer but failed
				// the spec's validation is corrupt: rebuild, and let
				// the save below atomically replace it.
				obsDerivedCorrupt.Inc()
			}
		}
		v, err := spec.Build(s)
		if err != nil {
			slot.err = err
			return
		}
		obsDerivedBuilds.Inc()
		slot.view = v
		s.noteGrowth(spec.Bytes(v))
		if s.dvSave != nil && spec.Encode != nil {
			s.dvSave(spec.Key, spec.Encode(v))
		}
	})
	return slot.view, slot.err
}

// noteGrowth reports a late footprint increase (a derived view
// materializing after commit) to the owning cache, which adds it
// to the stream's accounted bytes and rebalances the budget. Streams
// outside any cache ignore it.
func (s *Stream) noteGrowth(delta int64) {
	if s.onGrow != nil && delta > 0 {
		s.onGrow(delta)
	}
}

// SetGrowthHook registers the cache callback noteGrowth reports to.
// The cache installs it while committing the stream, before other
// goroutines can observe the entry, so the field needs no lock.
func (s *Stream) SetGrowthHook(fn func(delta int64)) { s.onGrow = fn }

// DerivedKeys returns the keys of the derived views materialized (or
// attempted) so far, for tests and telemetry.
func (s *Stream) DerivedKeys() []string {
	s.derivedMu.Lock()
	defer s.derivedMu.Unlock()
	keys := make([]string, 0, len(s.derived))
	for k := range s.derived {
		keys = append(keys, k)
	}
	return keys
}
