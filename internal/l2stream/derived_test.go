package l2stream

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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
// little-endian bytes.
func eventCountSpec(key string) *DerivedSpec {
	return &DerivedSpec{
		Key:    key,
		Encode: func(v any) []byte { return binary.LittleEndian.AppendUint64(nil, v.(uint64)) },
		Decode: func(_ *Stream, data []byte) (any, bool) {
			if len(data) != 8 {
				return nil, false
			}
			return binary.LittleEndian.Uint64(data), true
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

// TestDerivedSingleFlight: concurrent one-view DerivedAll calls for one key build
// once and share the view; a different key builds separately.
func TestDerivedSingleFlight(t *testing.T) {
	s, err := Capture(trace.NewSliceSource(testRecords(3000)), testConfig(5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	spec := eventCountSpec("test:count")
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := derived(s, spec, countEvents(&builds))
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("concurrent DerivedAll ran %d builds, want 1", n)
	}
	for i, v := range got {
		if v != uint64(s.Events()) {
			t.Errorf("caller %d saw %v, want %d", i, v, s.Events())
		}
	}
	if _, err := derived(s, eventCountSpec("test:count2"), countEvents(&builds)); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("distinct key reused the memo (%d builds, want 2)", n)
	}
	keys := s.DerivedKeys()
	if len(keys) != 2 {
		t.Errorf("DerivedKeys = %v, want 2 entries", keys)
	}
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
// truncating the file, or emptying it must each read as absent — the
// view rebuilds from the stream and the sidecar is rewritten.
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
// derived key — distinct keys write distinct files, and a sidecar
// echoing the wrong key (same hash path would be required, so simulate
// by renaming) is rejected.
func TestDerivedSidecarKeyed(t *testing.T) {
	dir := t.TempDir()
	s := persistentStreamFor(t, dir, "w", 4000)
	if _, err := derived(s, eventCountSpec("test:k1"), countEvents(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := derived(s, eventCountSpec("test:k2"), countEvents(nil)); err != nil {
		t.Fatal(err)
	}
	files := derivedFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("two keys wrote %d sidecars, want 2", len(files))
	}
	// A payload framed under one key must not decode under another:
	// copy k1's file onto k2's path and verify the key echo rejects it.
	data0, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeDerivedFile(data0, "test:other"); ok {
		t.Error("sidecar decoded under a mismatched key")
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

// TestDerivedPanickingBuildRetries: a Build that panics must not
// memoize anything. A caller that arrives during or after the panic
// builds the view itself instead of receiving a nil view with a nil
// error.
func TestDerivedPanickingBuildRetries(t *testing.T) {
	s, err := Capture(trace.NewSliceSource(testRecords(3000)), testConfig(5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	spec := eventCountSpec("test:panic")
	good := countEvents(&builds)
	started := make(chan struct{})
	release := make(chan struct{})
	bad := func(*Stream) (any, error) {
		builds.Add(1)
		close(started)
		<-release
		panic("build bug")
	}
	ownerPanic := make(chan any, 1)
	go func() {
		defer func() { ownerPanic <- recover() }()
		derived(s, spec, bad)
	}()
	<-started

	type got struct {
		v   any
		err error
	}
	waiterGot := make(chan got, 1)
	go func() {
		v, err := derived(s, spec, good)
		waiterGot <- got{v, err}
	}()
	close(release)
	if r := <-ownerPanic; r != "build bug" {
		t.Fatalf("owner recovered %v, want the build's own panic", r)
	}
	w := <-waiterGot
	if w.err != nil || w.v != uint64(s.Events()) {
		t.Fatalf("caller after a panicked build got (%v, %v), want %d", w.v, w.err, s.Events())
	}
	if v, err := derived(s, spec, good); err != nil || v != w.v {
		t.Errorf("later caller got (%v, %v), want the memoized %v", v, err, w.v)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("ran %d builds, want 2 (the panicked one and one retry)", n)
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
// key sets overlap build every key exactly once and never deadlock. A
// caller builds the keys it claimed before it waits on keys another
// caller holds: while one caller's build of {0,1} is blocked, a caller
// asking for {1,2} still builds 2, then waits for 1. A stress round of
// many callers over shuffled key subsets then runs under the race
// detector in CI.
func TestDerivedAllOverlappingCallers(t *testing.T) {
	s, err := Capture(trace.NewSliceSource(testRecords(3000)), testConfig(5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(s.Events())
	specs := countingSpecs("test:overlap", 3)
	var mu sync.Mutex
	builds := map[string]int{}
	builder := func(sub []*DerivedSpec, gate chan struct{}) func([]int) ([]any, error) {
		return func(missing []int) ([]any, error) {
			if gate != nil {
				<-gate
			}
			out := make([]any, len(missing))
			mu.Lock()
			defer mu.Unlock()
			for k, i := range missing {
				builds[sub[i].Key]++
				out[k] = want
			}
			return out, nil
		}
	}

	gate := make(chan struct{})
	firstDone := make(chan []any)
	go func() {
		sub := []*DerivedSpec{specs[0], specs[1]}
		vs, err := s.DerivedAll(sub, builder(sub, gate))
		if err != nil {
			t.Error(err)
		}
		firstDone <- vs
	}()
	for !s.claimed(specs[1].Key) {
		time.Sleep(time.Millisecond)
	}
	secondDone := make(chan []any)
	go func() {
		sub := []*DerivedSpec{specs[1], specs[2]}
		vs, err := s.DerivedAll(sub, builder(sub, nil))
		if err != nil {
			t.Error(err)
		}
		secondDone <- vs
	}()
	// The second caller builds key 2 while key 1 is still held.
	deadline := time.Now().Add(10 * time.Second)
	for !s.Memoized(specs[2].Key) {
		if time.Now().After(deadline) {
			t.Fatal("the second caller waited on a held key before building its own")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for _, vs := range [][]any{<-firstDone, <-secondDone} {
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
			vs, err := s.DerivedAll(sub, builder(sub, nil))
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
	for _, spec := range append(specs, stress...) {
		if n := builds[spec.Key]; n != 1 {
			t.Errorf("%s built %d times, want once", spec.Key, n)
		}
	}
}

// claimed reports whether any slot holds key, finished or not.
func (s *Stream) claimed(key string) bool {
	s.derivedMu.Lock()
	defer s.derivedMu.Unlock()
	_, ok := s.derived[key]
	return ok
}

// TestDerivedAllPanickingBuild: a buildMissing that panics abandons
// every slot it claimed. A caller blocked on one of those keys builds
// it itself, and every later call finds nothing memoized and builds
// again.
func TestDerivedAllPanickingBuild(t *testing.T) {
	s, err := Capture(trace.NewSliceSource(testRecords(3000)), testConfig(5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	specs := countingSpecs("test:fused-panic", 3)
	started := make(chan struct{})
	release := make(chan struct{})
	ownerPanic := make(chan any, 1)
	go func() {
		defer func() { ownerPanic <- recover() }()
		s.DerivedAll(specs, func([]int) ([]any, error) {
			close(started)
			<-release
			panic("fused build bug")
		})
	}()
	<-started

	var builds atomic.Int64
	waiterGot := make(chan any, 1)
	go func() {
		v, err := derived(s, specs[1], countEvents(&builds))
		if err != nil {
			t.Error(err)
		}
		waiterGot <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block on the held slot
	close(release)
	if r := <-ownerPanic; r != "fused build bug" {
		t.Fatalf("owner recovered %v, want the build's own panic", r)
	}
	if v := <-waiterGot; v != uint64(s.Events()) {
		t.Errorf("waiter got %v after the panic, want %d", v, s.Events())
	}
	if builds.Load() != 1 {
		t.Errorf("waiter ran %d builds, want 1", builds.Load())
	}
	for _, i := range []int{0, 2} {
		if s.claimed(specs[i].Key) {
			t.Errorf("%s kept a slot after the panicking build", specs[i].Key)
		}
	}
	vs, err := s.DerivedAll(specs, func(missing []int) ([]any, error) {
		if len(missing) != 2 || missing[0] != 0 || missing[1] != 2 {
			t.Errorf("rebuild asked for %v, want [0 2]", missing)
		}
		return []any{uint64(s.Events()), uint64(s.Events())}, nil
	})
	if err != nil || len(vs) != 3 {
		t.Fatalf("rebuild after the panic: %v, %v", vs, err)
	}
}
