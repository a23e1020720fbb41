package l2stream

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// derived returns the one-word view spec from its sidecar, or builds
// it with build and writes the sidecar, when the stream belongs to a
// store.
func derived(s *Stream, spec *DerivedSpec, build func(*Stream) (any, error)) (any, error) {
	if r := s.OpenSidecar(spec); r != nil {
		return r.Words()[0], nil
	}
	v, err := build(s)
	if err != nil {
		return nil, err
	}
	if w := s.CreateSidecar(spec); w != nil {
		w.Commit([]uint64{v.(uint64)})
	}
	return v, nil
}

// countEvents builds the event-count view: the stream's event count as
// a uint64, from a full decode. builds, when non-nil, counts the runs.
func countEvents(builds *atomic.Int64) func(*Stream) (any, error) {
	return func(s *Stream) (any, error) {
		if builds != nil {
			builds.Add(1)
		}
		evs, err := decodeAll(s, DecodeBlockSize)
		if err != nil {
			return nil, err
		}
		return uint64(len(evs)), nil
	}
}

// eventCountSpec is a minimal derived-view family for exercising the
// sidecar machinery: the countEvents view, persisted as its payload's
// one word.
func eventCountSpec(key string) *DerivedSpec { return &DerivedSpec{Key: key, Words: 1} }

func persistentStreamFor(t *testing.T, dir, workload string, instr uint64) *Stream {
	t.Helper()
	cache, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(instr)
	s, err := cache.GetOrCaptureFrom(Key{Workload: workload, Config: cfg}, sliceOpen(testRecords(int(instr))))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDerivedSidecarRoundTrip: a derived view built on a persistent
// stream writes a sidecar; a second cache on the same directory serves
// the view from disk without rebuilding.
func TestDerivedSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := persistentStreamFor(t, dir, "w", 4000)
	var builds atomic.Int64
	writes0 := obsDerivedDiskWrites.Value()
	v1, err := derived(s, eventCountSpec("test:rt"), countEvents(&builds))
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 {
		t.Fatalf("first use built %d times, want 1", builds.Load())
	}
	if d := obsDerivedDiskWrites.Value() - writes0; d != 1 {
		t.Errorf("sidecar writes delta = %d, want 1", d)
	}

	s2 := persistentStreamFor(t, dir, "w", 4000)
	hits0 := obsDerivedDiskHits.Value()
	v2, err := derived(s2, eventCountSpec("test:rt"), countEvents(&builds))
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 {
		t.Errorf("warm load rebuilt the view (%d builds)", builds.Load())
	}
	if d := obsDerivedDiskHits.Value() - hits0; d != 1 {
		t.Errorf("sidecar hits delta = %d, want 1", d)
	}
	if v1 != v2 {
		t.Errorf("disk round-trip changed the view: %v != %v", v1, v2)
	}
}

// derivedFiles lists the .l2d sidecar paths in dir.
func derivedFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".l2d") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestDerivedSidecarCorruptionRebuilds: flipping payload bytes,
// truncating the file, emptying it, appending a byte after the
// payload, or a frame length that disagrees with the file must each
// read as absent — the view rebuilds from the stream and the sidecar
// is rewritten.
func TestDerivedSidecarCorruptionRebuilds(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"flip-payload-byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }},
		{"flip-key-byte", func(b []byte) []byte { b[20] ^= 0xff; return b }},
		{"truncate", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func([]byte) []byte { return nil }},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad-version", func(b []byte) []byte { b[4]++; return b }},
		{"trailing-byte", func(b []byte) []byte { return append(b, 0) }},
		// The frame's payload length sits 16 bytes before the payload.
		{"length-over-file", func(b []byte) []byte { b[len(b)-8-16]++; return b }},
		{"length-under-file", func(b []byte) []byte { b[len(b)-8-16]--; return b }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := persistentStreamFor(t, dir, "w", 4000)
			var builds atomic.Int64
			want, err := derived(s, eventCountSpec("test:c"), countEvents(&builds))
			if err != nil {
				t.Fatal(err)
			}
			files := derivedFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("found %d sidecars, want 1", len(files))
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := persistentStreamFor(t, dir, "w", 4000)
			corrupt0 := obsDerivedCorrupt.Value()
			got, err := derived(s2, eventCountSpec("test:c"), countEvents(&builds))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("rebuilt view %v, want %v", got, want)
			}
			if builds.Load() != 2 {
				t.Errorf("corrupt sidecar served without rebuild (%d builds, want 2)", builds.Load())
			}
			if d := obsDerivedCorrupt.Value() - corrupt0; d != 1 {
				t.Errorf("corruption counter delta = %d, want 1", d)
			}
			// The rebuild rewrote the sidecar; a third stream loads clean.
			s3 := persistentStreamFor(t, dir, "w", 4000)
			if got, err := derived(s3, eventCountSpec("test:c"), countEvents(&builds)); err != nil || got != want {
				t.Fatalf("rewritten sidecar load = %v, %v", got, err)
			}
			if builds.Load() != 2 {
				t.Errorf("rewritten sidecar was not served from disk (%d builds)", builds.Load())
			}
		})
	}
}

// TestDerivedSidecarKeyed: sidecar files are content-addressed by
// derived key — distinct keys write distinct files — and a sidecar
// echoing the wrong key is rejected on load. Simulate a hash collision
// by copying one key's file onto the other's path: loading it rebuilds
// the view and counts the file as corrupt.
func TestDerivedSidecarKeyed(t *testing.T) {
	dir := t.TempDir()
	s := persistentStreamFor(t, dir, "w", 4000)
	var builds atomic.Int64
	if _, err := derived(s, eventCountSpec("test:k1"), countEvents(&builds)); err != nil {
		t.Fatal(err)
	}
	files := derivedFiles(t, dir)
	if _, err := derived(s, eventCountSpec("test:k2"), countEvents(&builds)); err != nil {
		t.Fatal(err)
	}
	if all := derivedFiles(t, dir); len(all) != 2 || len(files) != 1 {
		t.Fatalf("two keys wrote %d sidecars, want 2", len(all))
	}
	k1 := files[0]
	k2 := cacheStore(t, dir).derivedPath(Key{Workload: "w", Config: testConfig(4000)}, "test:k2")
	data, err := os.ReadFile(k1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(k2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := persistentStreamFor(t, dir, "w", 4000)
	corrupt0, builds0 := obsDerivedCorrupt.Value(), builds.Load()
	if _, err := derived(s2, eventCountSpec("test:k2"), countEvents(&builds)); err != nil {
		t.Fatal(err)
	}
	if d := obsDerivedCorrupt.Value() - corrupt0; d != 1 {
		t.Errorf("sidecar framed under test:k1 loaded as test:k2 (corruption delta %d, want 1)", d)
	}
	if builds.Load() != builds0+1 {
		t.Error("a sidecar echoing the wrong key was served without a rebuild")
	}
}

// cacheStore opens the persistent store over dir, for its file paths.
func cacheStore(t *testing.T, dir string) *store {
	t.Helper()
	cache, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	return cache.store
}

// TestDerivedSidecarEncodeFails: a sidecar committed with a column
// written only halfway — a half that has reached the staging file, as
// every write does — leaves neither a sidecar nor its staging file,
// and counts one disk error and no write.
func TestDerivedSidecarEncodeFails(t *testing.T) {
	dir := t.TempDir()
	s := persistentStreamFor(t, dir, "w", 4000)
	spec := &DerivedSpec{Key: "test:encode-fails", Words: 1, Width: 8}
	errs0, writes0 := obsCacheDiskErrors.Value(), obsDerivedDiskWrites.Value()
	w := s.CreateSidecar(spec)
	if w == nil {
		t.Fatal("a persistent stream staged no sidecar")
	}
	w.U64s(make([]uint64, s.Accesses()/2))
	w.Commit([]uint64{s.Accesses()})
	if d := obsCacheDiskErrors.Value() - errs0; d != 1 {
		t.Errorf("disk errors delta = %d, want 1", d)
	}
	if d := obsDerivedDiskWrites.Value() - writes0; d != 0 {
		t.Errorf("sidecar writes delta = %d, want 0", d)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".l2d") || strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("a failed sidecar left %s behind", e.Name())
		}
	}
}

// TestStoreGC: setting a byte budget on a persistent directory evicts
// whole capture groups — stream file plus derived sidecars — oldest
// first, until the directory fits, and leaves newer groups intact.
func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(5000)
	var streams []*Stream
	var metas []string
	for _, w := range []string{"a", "b", "c"} {
		s, err := cache.GetOrCaptureFrom(Key{Workload: w, Config: cfg}, sliceOpen(testRecords(3000)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := derived(s, eventCountSpec("test:gc"), countEvents(nil)); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
		meta := cache.store.streamPath(Key{Workload: w, Config: cfg})
		metas = append(metas, meta)
	}
	if got := len(derivedFiles(t, dir)); got != 3 {
		t.Fatalf("expected 3 sidecars before GC, found %d", got)
	}
	// Age the groups deterministically: a oldest, c newest.
	base := time.Now().Add(-time.Hour)
	for i, meta := range metas {
		mt := base.Add(time.Duration(i) * time.Minute)
		for _, p := range append(derivedFiles(t, dir), metas...) {
			if strings.HasPrefix(p, strings.TrimSuffix(meta, ".l2s")) {
				if err := os.Chtimes(p, mt, mt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var total int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		info, _ := e.Info()
		total += info.Size()
	}
	perGroup := total / 3
	evict0 := obsStoreEvictions.Value()
	cache.SetStoreMaxBytes(total - perGroup/2) // forces out exactly one group
	if d := obsStoreEvictions.Value() - evict0; d != 1 {
		t.Errorf("store evictions delta = %d, want 1", d)
	}
	if _, err := os.Stat(metas[0]); !os.IsNotExist(err) {
		t.Errorf("oldest group's .l2s survived GC (err=%v)", err)
	}
	for _, meta := range metas[1:] {
		if _, err := os.Stat(meta); err != nil {
			t.Errorf("newer group's .l2s was evicted: %v", err)
		}
	}
	// The evicted group's sidecar went with it.
	for _, p := range derivedFiles(t, dir) {
		if strings.HasPrefix(p, strings.TrimSuffix(metas[0], ".l2s")) {
			t.Errorf("evicted group left sidecar %s behind", p)
		}
	}
	// An unbounded budget never evicts.
	cache.SetStoreMaxBytes(0)
	if d := obsStoreEvictions.Value() - evict0; d != 1 {
		t.Errorf("unbounded budget evicted (delta %d, want 1)", d)
	}
	_ = streams
}
