// Derived views: per-stream precomputed arrays that are pure functions
// of the captured event stream plus a small configuration key — the
// dense access columns, folded predictor signature sequences,
// prefetch fill schedules. They are memoized on the stream (single-
// flight), live and die with it, and — when the stream belongs to a
// persistent capture store — are persisted as content-addressed sidecar
// files so warm sweeps across processes skip the computation entirely.
//
// The l2stream package stays agnostic about what a derived view
// contains: builders and codecs live with their consumers (internal/
// sim), which hands in a DerivedSpec per view and one builder per
// request. This package owns the cross-cutting mechanics only —
// memoization, concurrency, and the sidecar load/store protocol.
// DerivedAll is the one request: it asks for several views at once and
// builds every missing one with one callback, so a consumer can fill
// them all from one decode pass. The same single-flight slots also
// hold Memo values: small in-memory results computed from the stream
// (sim's replay results) that are never persisted.
package l2stream

import "fmt"

// DerivedSpec describes one derived-view family to Stream.DerivedAll:
// an invalidation key and an optional persistence codec. The builder
// is DerivedAll's argument, not part of the spec.
//
// Key must change whenever the view's contents would: it should embed
// the family name, a format version, and every configuration input the
// view depends on (TLB geometry, predictor history configuration,
// prefetch distance, …). Streams never compare keys semantically —
// distinct keys are distinct views.
type DerivedSpec struct {
	// Key is the full invalidation key (family + version + config).
	Key string
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
// claims it runs the build and closes done; everyone else blocks on
// done. A build that fails or panics deletes every slot it claimed and
// marks them abandoned before closing done, so waiters and every later
// caller retry through a fresh slot — as after a failed capture —
// instead of reading a nil value; the panic carries on up the building
// goroutine.
type derivedSlot struct {
	done      chan struct{} // closed once view/abandoned are final
	view      any
	settled   bool // written by the claiming goroutine only
	abandoned bool // the slot is out of the map; callers retry
}

// memoizeAll returns the stream's single-flight memo values for keys,
// in keys order. It claims a slot for every key no slot holds yet and
// runs build once, on the calling goroutine, over the claimed indices
// (ascending); build hands each value to settle, which wakes that
// slot's waiters at once. Only then does memoizeAll wait on the slots
// other goroutines hold, so two overlapping calls never wait on each
// other's claims and cannot deadlock. A key whose slot another
// goroutine abandoned is claimed again. If build fails or panics,
// every slot it claimed and did not settle is abandoned. Derived
// views and Memo values share the one key space.
func (s *Stream) memoizeAll(keys []string, build func(claimed []int, settle func(i int, v any)) error) ([]any, error) {
	vals := make([]any, len(keys))
	slots := make([]*derivedSlot, len(keys))
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		var claimed, held []int
		s.derivedMu.Lock()
		if s.derived == nil {
			s.derived = make(map[string]*derivedSlot)
		}
		for _, i := range pending {
			slot, ok := s.derived[keys[i]]
			if !ok {
				slot = &derivedSlot{done: make(chan struct{})}
				s.derived[keys[i]] = slot
				claimed = append(claimed, i)
			} else {
				held = append(held, i)
			}
			slots[i] = slot
		}
		s.derivedMu.Unlock()
		if len(claimed) > 0 {
			if err := s.fill(keys, slots, claimed, build); err != nil {
				return nil, err
			}
			for _, i := range claimed {
				vals[i] = slots[i].view
			}
		}
		pending = pending[:0]
		for _, i := range held {
			<-slots[i].done
			if slots[i].abandoned {
				pending = append(pending, i)
			} else {
				vals[i] = slots[i].view
			}
		}
	}
	return vals, nil
}

// fill runs build over the claimed slots. A slot build settles wakes
// its waiters at once; every claimed slot it leaves unsettled, on an
// error or a panic, leaves the map and is marked abandoned before its
// done closes. build settles every claimed index, each once, unless it
// fails.
func (s *Stream) fill(keys []string, slots []*derivedSlot, claimed []int, build func([]int, func(int, any)) error) error {
	defer func() {
		var dropped []int
		for _, i := range claimed {
			if !slots[i].settled {
				dropped = append(dropped, i)
			}
		}
		s.derivedMu.Lock()
		for _, i := range dropped {
			delete(s.derived, keys[i])
			slots[i].abandoned = true
		}
		s.derivedMu.Unlock()
		for _, i := range dropped {
			close(slots[i].done)
		}
	}()
	return build(claimed, func(i int, v any) {
		slots[i].view, slots[i].settled = v, true
		close(slots[i].done)
	})
}

// DerivedAll returns the stream's memoized derived views for specs, in
// specs order, materializing every missing one with at most one call
// of buildMissing. For each spec it tries the memo, then the
// persistent sidecar tier (when the stream belongs to a capture store
// and the spec has a codec); the specs still missing after both go to
// buildMissing together, as indices into specs (ascending), and it
// must return their views in that order. buildMissing may use the
// stream's decoders freely (Stream.Decode; block-decode with NextBlock
// or NextAccessBlock); the stream is immutable underneath it. Each
// built view is then persisted for the next process and memoized on
// its own. Keys other goroutines are
// already building are waited on only after this call's own builds
// finish. A buildMissing that fails or panics leaves none of its keys
// memoized, so the next call builds them again. The returned views are
// shared between every caller and MUST be treated as read-only.
func (s *Stream) DerivedAll(specs []*DerivedSpec, buildMissing func(missing []int) ([]any, error)) ([]any, error) {
	keys := make([]string, len(specs))
	for i, spec := range specs {
		keys[i] = spec.Key
	}
	return s.memoizeAll(keys, func(claimed []int, settle func(int, any)) error {
		var missing []int
		for _, i := range claimed {
			if v, ok := s.loadSidecar(specs[i]); ok {
				settle(i, v)
			} else {
				missing = append(missing, i)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		views, err := buildMissing(missing)
		if err != nil {
			return err
		}
		if len(views) != len(missing) {
			return fmt.Errorf("l2stream: derived build returned %d views for %d keys", len(views), len(missing))
		}
		for k, i := range missing {
			spec, v := specs[i], views[k]
			obsDerivedBuilds.Inc()
			if s.dvSave != nil && spec.Encode != nil {
				s.dvSave(spec.Key, spec.Encode(v))
			}
			settle(i, v)
		}
		return nil
	})
}

// loadSidecar returns spec's view from the persistent sidecar tier,
// or ok=false when the stream has no
// store, the spec no codec, or the store nothing valid for the key.
func (s *Stream) loadSidecar(spec *DerivedSpec) (view any, ok bool) {
	if s.dvLoad == nil || spec.Decode == nil {
		return nil, false
	}
	data, release := s.dvLoad(spec.Key)
	if data == nil {
		return nil, false
	}
	v, ok := spec.Decode(s, data)
	// Decode copies what it keeps, so the payload buffer can go back
	// to its pool before the view is even installed.
	if release != nil {
		release()
	}
	if !ok {
		// A sidecar that parsed at the store layer but failed the
		// spec's validation is corrupt: the caller rebuilds, and its
		// save atomically replaces the file.
		obsDerivedCorrupt.Inc()
		return nil, false
	}
	obsDerivedDiskHits.Inc()
	return v, true
}

// Memo returns the value memoized on the stream under key, running
// build on first use, with DerivedAll's single-flight and failure rules.
// It is for results computed from the stream rather than views of it:
// a Memo value is never persisted and not counted as a derived-view
// build. It lives and dies with the stream, so a caller that wants its
// memo across calls holds on to the stream. Keys share the derived
// views' key space, so callers prefix them with a family distinct from
// every view's.
func (s *Stream) Memo(key string, build func() (any, error)) (any, error) {
	vs, err := s.memoizeAll([]string{key}, func(_ []int, settle func(int, any)) error {
		v, err := build()
		if err != nil {
			return err
		}
		settle(0, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vs[0], nil
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
