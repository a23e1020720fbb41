package l2stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chirplab/chirp/internal/trace"
)

// derived requests the one view spec through DerivedAll, built by
// build when it is neither memoized nor persisted.
func derived(s *Stream, spec *DerivedSpec, build func(*Stream) (any, error)) (any, error) {
	vs, err := s.DerivedAll([]*DerivedSpec{spec}, func([]int) ([]any, error) {
		v, err := build(s)
		return []any{v}, err
	})
	if err != nil {
		return nil, err
	}
	return vs[0], nil
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
// memo/persistence machinery: the countEvents view, persisted as 8
// little-endian bytes. Its Decode reads those 8 bytes whatever payload
// length the frame gives, so a frame length that disagrees with the
// file is caught by the store's own checks, not by the codec.
func eventCountSpec(key string) *DerivedSpec {
	return &DerivedSpec{
		Key: key,
		Encode: func(w io.Writer, v any) error {
			_, err := w.Write(binary.LittleEndian.AppendUint64(nil, v.(uint64)))
			return err
		},
		Decode: func(_ *Stream, r io.Reader, _ int64) (any, bool) {
			var b [8]byte
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, false
			}
			return binary.LittleEndian.Uint64(b[:]), true
		},
	}
}

func persistentStreamFor(t *testing.T, dir, workload string, instr uint64) *Stream {
	t.Helper()
	cache, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(instr)
	s, err := cache.GetOrCapture(Key{Workload: workload, Config: cfg}, func(maxBytes int64) (*Stream, error) {
		return Capture(trace.NewSliceSource(testRecords(int(instr))), cfg, maxBytes)
	})
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

// TestDerivedSidecarEncodeFails: an Encode that fails halfway through
// its payload leaves neither a sidecar nor its staging file, counts one
// disk error, and the built view is still served and memoized.
func TestDerivedSidecarEncodeFails(t *testing.T) {
	dir := t.TempDir()
	s := persistentStreamFor(t, dir, "w", 4000)
	spec := eventCountSpec("test:encode-fails")
	spec.Encode = func(w io.Writer, _ any) error {
		// Past the store's write buffer, so part of the payload has
		// reached the staging file when the encoder gives up.
		if _, err := w.Write(make([]byte, 64<<10)); err != nil {
			return err
		}
		return errors.New("encoder gave up")
	}
	errs0, writes0 := obsCacheDiskErrors.Value(), obsDerivedDiskWrites.Value()
	v, err := derived(s, spec, countEvents(nil))
	if err != nil {
		t.Fatal(err)
	}
	if v != s.Events() {
		t.Errorf("served view %v, want %d", v, s.Events())
	}
	if keys := s.DerivedKeys(); !slices.Contains(keys, spec.Key) {
		t.Errorf("memoized keys %v lack %s", keys, spec.Key)
	}
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
			t.Errorf("a failed encode left %s behind", e.Name())
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
		s, err := cache.GetOrCapture(Key{Workload: w, Config: cfg}, func(maxBytes int64) (*Stream, error) {
			return Capture(trace.NewSliceSource(testRecords(3000)), cfg, maxBytes)
		})
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

// TestDerivedPanickingBuildRetries: a build that panics memoizes
// nothing, so the next call builds the view and a later one is served
// from the memo.
func TestDerivedPanickingBuildRetries(t *testing.T) {
	s, err := Capture(trace.NewSliceSource(testRecords(3000)), testConfig(5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	spec := eventCountSpec("test:panic")
	func() {
		defer func() {
			if r := recover(); r != "build bug" {
				t.Fatalf("recovered %v, want the build's own panic", r)
			}
		}()
		derived(s, spec, func(*Stream) (any, error) { panic("build bug") })
	}()
	if keys := s.DerivedKeys(); len(keys) != 0 {
		t.Fatalf("a panicked build memoized %v", keys)
	}
	v, err := derived(s, spec, countEvents(&builds))
	if err != nil || v != uint64(s.Events()) {
		t.Fatalf("call after a panicked build got (%v, %v), want %d", v, err, s.Events())
	}
	if v2, err := derived(s, spec, countEvents(&builds)); err != nil || v2 != v {
		t.Errorf("later call got (%v, %v), want the memoized %v", v2, err, v)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("ran %d builds after the panic, want 1", n)
	}
}

// countingSpecs returns n persisted event-count specs under keys
// prefix/0 … prefix/n-1, for DerivedAll tests whose buildMissing
// counts what it builds.
func countingSpecs(prefix string, n int) []*DerivedSpec {
	specs := make([]*DerivedSpec, n)
	for i := range specs {
		specs[i] = eventCountSpec(fmt.Sprintf("%s/%d", prefix, i))
	}
	return specs
}

// TestDerivedAllOverlappingCallers: concurrent DerivedAll calls whose
// key sets overlap never wait on each other's builds and all get the
// right views. While one caller's build of {0,1} is blocked, a caller
// asking for {1,2} builds both and returns. A stress round of many
// callers over shuffled key subsets then runs under the race detector
// in CI.
func TestDerivedAllOverlappingCallers(t *testing.T) {
	s, err := Capture(trace.NewSliceSource(testRecords(3000)), testConfig(5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(s.Events())
	specs := countingSpecs("test:overlap", 3)
	build := func(missing []int) ([]any, error) {
		out := make([]any, len(missing))
		for k := range out {
			out[k] = want
		}
		return out, nil
	}

	started, gate := make(chan struct{}), make(chan struct{})
	firstDone := make(chan []any)
	go func() {
		vs, err := s.DerivedAll(specs[:2], func(missing []int) ([]any, error) {
			close(started)
			<-gate
			return build(missing)
		})
		if err != nil {
			t.Error(err)
		}
		firstDone <- vs
	}()
	<-started
	secondDone := make(chan []any)
	go func() {
		vs, err := s.DerivedAll(specs[1:], build)
		if err != nil {
			t.Error(err)
		}
		secondDone <- vs
	}()
	var second []any
	select {
	case second = <-secondDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the second caller waited on the first caller's build")
	}
	close(gate)
	for _, vs := range [][]any{<-firstDone, second} {
		for _, v := range vs {
			if v != want {
				t.Errorf("view %v, want %d", v, want)
			}
		}
	}

	stress := countingSpecs("test:overlap-stress", 6)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sub []*DerivedSpec
			for k := range stress {
				if (g+k)%3 != 0 {
					sub = append(sub, stress[(g*5+k)%len(stress)])
				}
			}
			vs, err := s.DerivedAll(sub, build)
			if err != nil {
				t.Error(err)
				return
			}
			for _, v := range vs {
				if v != want {
					t.Errorf("stress view %v, want %d", v, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDerivedAllPanickingBuild: a buildMissing that panics leaves
// none of its keys memoized, so the next call builds every one again.
func TestDerivedAllPanickingBuild(t *testing.T) {
	s, err := Capture(trace.NewSliceSource(testRecords(3000)), testConfig(5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	specs := countingSpecs("test:fused-panic", 3)
	func() {
		defer func() {
			if r := recover(); r != "fused build bug" {
				t.Fatalf("recovered %v, want the build's own panic", r)
			}
		}()
		s.DerivedAll(specs, func([]int) ([]any, error) { panic("fused build bug") })
	}()
	if keys := s.DerivedKeys(); len(keys) != 0 {
		t.Fatalf("a panicked build memoized %v", keys)
	}
	vs, err := s.DerivedAll(specs, func(missing []int) ([]any, error) {
		if len(missing) != 3 {
			t.Errorf("rebuild asked for %v, want [0 1 2]", missing)
		}
		out := make([]any, len(missing))
		for k := range out {
			out[k] = uint64(s.Events())
		}
		return out, nil
	})
	if err != nil || len(vs) != 3 {
		t.Fatalf("rebuild after the panic: %v, %v", vs, err)
	}
}
