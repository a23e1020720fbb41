// Derived views: per-stream precomputed arrays that are pure functions
// of the captured event stream plus a small configuration key — the
// dense access columns and the folded predictor signature sequences.
// They are memoized on the stream, live and die with it, and — when
// the stream belongs to a persistent capture store — are persisted as
// content-addressed sidecar files so warm sweeps across processes skip
// the computation entirely.
//
// The l2stream package stays agnostic about what a derived view
// contains: builders and codecs live with their consumers (internal/
// sim), which hands in a DerivedSpec per view and one builder per
// request. This package owns the cross-cutting mechanics only — the
// memo map and the sidecar load/store protocol. DerivedAll is the one
// request: it asks for several views at once and builds every missing
// one with one callback, so a consumer can fill them all from one
// decode pass. A stream belongs to the one job that captured or loaded
// it, and that job fetches its views before it fans out, so the memo
// is a plain mutex-guarded map: concurrent callers stay race-free but
// may each build the same view.
package l2stream

import (
	"fmt"
	"io"
)

// DerivedSpec describes one derived-view family to Stream.DerivedAll:
// an invalidation key and an optional persistence codec. The builder
// is DerivedAll's argument, not part of the spec.
//
// Key must change whenever the view's contents would: it should embed
// the family name, a format version, and every configuration input the
// view depends on (TLB geometry, predictor history configuration,
// prefetch distance, …). Streams never compare keys semantically —
// distinct keys are distinct views.
//
// The codec streams: Encode writes the payload to the sidecar file as
// it goes and Decode reads it from the file into the typed view, so
// neither side holds the encoded payload in one buffer. The store
// frames, sizes and checksums the payload around them.
type DerivedSpec struct {
	// Key is the full invalidation key (family + version + config).
	Key string
	// Encode writes the view's sidecar payload to w; nil means the
	// family is never persisted. An error abandons the sidecar, and
	// the built view is still served.
	Encode func(w io.Writer, view any) error
	// Decode reads and validates a sidecar payload of n bytes from r,
	// which ends after them. ok=false means the payload is corrupt or
	// stale, in which case the view is rebuilt (and the sidecar
	// atomically replaced); so does a Decode that leaves payload bytes
	// unread, or a payload whose checksum fails once Decode returns.
	// nil means sidecar loads are skipped even if a file exists.
	Decode func(s *Stream, r io.Reader, n int64) (view any, ok bool)
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
// built view is persisted for the next process and memoized only once
// buildMissing has returned them all, so a buildMissing that fails or
// panics leaves nothing memoized and the next call builds again.
// Concurrent callers are race-free but may each build the same view;
// the first view stored for a key is the one every later call gets.
// The returned views are shared between every caller and MUST be
// treated as read-only.
func (s *Stream) DerivedAll(specs []*DerivedSpec, buildMissing func(missing []int) ([]any, error)) ([]any, error) {
	views := make([]any, len(specs))
	var missing []int
	s.derivedMu.Lock()
	for i, spec := range specs {
		if v, ok := s.derived[spec.Key]; ok {
			views[i] = v
		} else {
			missing = append(missing, i)
		}
	}
	s.derivedMu.Unlock()
	var built []int
	for _, i := range missing {
		if v, ok := s.loadSidecar(specs[i]); ok {
			views[i] = s.memoize(specs[i].Key, v)
		} else {
			built = append(built, i)
		}
	}
	if len(built) == 0 {
		return views, nil
	}
	vs, err := buildMissing(built)
	if err != nil {
		return nil, err
	}
	if len(vs) != len(built) {
		return nil, fmt.Errorf("l2stream: derived build returned %d views for %d keys", len(vs), len(built))
	}
	for k, i := range built {
		spec := specs[i]
		obsDerivedBuilds.Inc()
		if s.dvSave != nil && spec.Encode != nil {
			s.dvSave(spec, vs[k])
		}
		views[i] = s.memoize(spec.Key, vs[k])
	}
	return views, nil
}

// memoize stores v under key unless a concurrent caller stored a view
// there first, and returns the stored view.
func (s *Stream) memoize(key string, v any) any {
	s.derivedMu.Lock()
	defer s.derivedMu.Unlock()
	if old, ok := s.derived[key]; ok {
		return old
	}
	if s.derived == nil {
		s.derived = make(map[string]any)
	}
	s.derived[key] = v
	return v
}

// loadSidecar returns spec's view from the persistent sidecar tier,
// or ok=false when the stream has no store, the spec no codec, or the
// store nothing valid for the key (a corrupt sidecar is counted, and
// the caller's rebuild atomically replaces it).
func (s *Stream) loadSidecar(spec *DerivedSpec) (view any, ok bool) {
	if s.dvLoad == nil || spec.Decode == nil {
		return nil, false
	}
	return s.dvLoad(spec)
}

// DerivedKeys returns the keys of the derived views memoized so far,
// for tests and telemetry.
func (s *Stream) DerivedKeys() []string {
	s.derivedMu.Lock()
	defer s.derivedMu.Unlock()
	keys := make([]string, 0, len(s.derived))
	for k := range s.derived {
		keys = append(keys, k)
	}
	return keys
}
