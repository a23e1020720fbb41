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
// accounting, and the sidecar load/store protocol. The same single-
// flight slots also hold Memo values: small in-memory results computed
// from the stream (sim's replay results) that are neither persisted
// nor budget-charged.
package l2stream

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
	// Build computes the view from the stream's events. It runs once
	// per (stream, key), again only after a failed or panicking run,
	// and may use the stream's decoders freely (Stream.Decode;
	// block-decode with NextBlock or NextAccessBlock); the stream is
	// immutable underneath it.
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

// derivedSlot is one single-flight memo cell. The goroutine that
// creates it runs the build and closes done; everyone else blocks on
// done. A build that fails or panics deletes its slot and marks it
// abandoned before closing done, so waiters and every later caller
// retry through a fresh slot — as after a failed capture — instead of
// reading a nil value with a nil error; the panic carries on up the
// building goroutine.
type derivedSlot struct {
	done      chan struct{} // closed once view/err/abandoned are final
	view      any
	err       error
	abandoned bool // the slot is out of the map; callers retry
}

// memoize returns the stream's single-flight memo for key, running
// build on the calling goroutine when no slot holds the key yet.
// Derived views and Memo values share the one key space.
func (s *Stream) memoize(key string, build func() (any, error)) (any, error) {
	for {
		s.derivedMu.Lock()
		if s.derived == nil {
			s.derived = make(map[string]*derivedSlot)
		}
		slot, ok := s.derived[key]
		if !ok {
			slot = &derivedSlot{done: make(chan struct{})}
			s.derived[key] = slot
		}
		s.derivedMu.Unlock()
		if !ok {
			s.fill(key, slot, build)
			return slot.view, slot.err
		}
		<-slot.done
		if !slot.abandoned {
			return slot.view, slot.err
		}
	}
}

// fill runs build into slot and wakes its waiters. If build fails or
// panics, the slot leaves the map and is marked abandoned before done
// closes.
func (s *Stream) fill(key string, slot *derivedSlot, build func() (any, error)) {
	finished := false
	defer func() {
		if !finished || slot.err != nil {
			s.derivedMu.Lock()
			delete(s.derived, key)
			slot.abandoned = true
			s.derivedMu.Unlock()
		}
		close(slot.done)
	}()
	slot.view, slot.err = build()
	finished = true
}

// Derived returns the stream's memoized derived view for spec,
// building it on first use: the persistent sidecar tier is consulted
// first (when the stream belongs to a capture store and the spec has a
// codec), then Build runs and the result is persisted for the next
// process. Concurrent calls for one key share a single build; a build
// that fails or panics leaves no memo behind, so the next call builds
// again.
// The returned view is shared between every caller and MUST be treated
// as read-only.
func (s *Stream) Derived(spec *DerivedSpec) (any, error) {
	return s.memoize(spec.Key, func() (any, error) {
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
					s.noteGrowth(spec.Bytes(v))
					return v, nil
				}
				// A sidecar that parsed at the store layer but failed
				// the spec's validation is corrupt: rebuild, and let
				// the save below atomically replace it.
				obsDerivedCorrupt.Inc()
			}
		}
		v, err := spec.Build(s)
		if err != nil {
			return nil, err
		}
		obsDerivedBuilds.Inc()
		s.noteGrowth(spec.Bytes(v))
		if s.dvSave != nil && spec.Encode != nil {
			s.dvSave(spec.Key, spec.Encode(v))
		}
		return v, nil
	})
}

// Memo returns the value memoized on the stream under key, running
// build on first use, with Derived's single-flight and failure rules.
// It is for results computed from the stream rather than views of it:
// a Memo value is never persisted, never charged to the cache budget
// (callers keep such values small), and not counted as a derived-view
// build. It lives and dies with the stream, so a stream
// evicted from its cache takes its memo along. Keys share Derived's
// key space, so callers prefix them with a family distinct from every
// view's.
func (s *Stream) Memo(key string, build func() (any, error)) (any, error) {
	return s.memoize(key, build)
}

// Memoized reports whether key already holds a finished value (a
// derived view or a Memo value). It never waits: a value still being
// built reports false.
func (s *Stream) Memoized(key string) bool {
	s.derivedMu.Lock()
	slot, ok := s.derived[key]
	s.derivedMu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-slot.done:
		return !slot.abandoned
	default:
		return false
	}
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
