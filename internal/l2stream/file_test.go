package l2stream

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// openStreamFiles counts this process's open descriptors on .l2s
// files in dir, renamed, replaced or deleted ones included. It skips
// the test where /proc/self/fd does not exist.
func openStreamFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) && strings.Contains(target, ".l2s") {
			n++
		}
	}
	return n
}

// persistedMultiChunk captures multiChunkCapture's stream through a
// persistent cache over dir (or loads it from there), so the stream it
// returns reads its events from the store file, and returns the file's
// path too.
func persistedMultiChunk(t *testing.T, dir string) (*Stream, string) {
	t.Helper()
	c, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Workload: "multi", Config: testConfig(300000)}
	s, err := c.GetOrCaptureFrom(key, sliceOpen(testRecords(120000)))
	if err != nil {
		t.Fatal(err)
	}
	return s, c.store.streamPath(key)
}

// decodeWith block-decodes s through a decoder with the given file
// window, in blocks of block events, like decodeAll.
func decodeWith(s *Stream, window, block int) ([]Event, error) {
	evs := make([]Event, s.Events()+1)
	d := s.decoder(window)
	n := 0
	for {
		k := d.NextBlock(evs[n:min(n+block, len(evs))])
		if k == 0 {
			break
		}
		n += k
	}
	return evs[:n], d.Err()
}

// TestFileDecodeMatchesReference: a stream's file decodes to exactly
// the events referenceEvents derives from the records, whatever the
// window (events cut off at every window boundary are carried over)
// and however many decoders read the file at once; the access-only
// decoder agrees too. It holds for an unnamed file, a capture into the
// store and a load from it.
func TestFileDecodeMatchesReference(t *testing.T) {
	want := referenceEvents(t, testRecords(120000), testConfig(300000))
	var wantAcc []Event
	for _, ev := range want {
		if ev.Kind != EventBranch {
			wantAcc = append(wantAcc, ev)
		}
	}
	dir := t.TempDir()
	for pass := 0; pass < 3; pass++ { // no store, a capture into the store, a load from it
		var s *Stream
		if pass == 0 {
			var err error
			if s, err = multiChunkCapture(t, 0); err != nil {
				t.Fatal(err)
			}
		} else {
			s, _ = persistedMultiChunk(t, dir)
		}
		for _, window := range []int{maxEventBytes + 1, 37, 4096, decodeWindowSize} {
			for _, block := range []int{1, 7, DecodeBlockSize} {
				got, err := decodeWith(s, window, block)
				if err != nil {
					t.Fatalf("pass %d, window %d, block %d: %v", pass, window, block, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("pass %d, window %d, block %d: the file decodes differently from the reference", pass, window, block)
				}
			}
		}
		gotAcc, err := decodeAccesses(s, 7)
		if err != nil || !slices.Equal(gotAcc, wantAcc) {
			t.Fatalf("pass %d: access-only file decode differs from the reference (err %v)", pass, err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := decodeAll(s, DecodeBlockSize); err != nil || !slices.Equal(got, want) {
					t.Errorf("pass %d: a concurrent decoder read different events (err %v)", pass, err)
				}
			}()
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeAll(s, DecodeBlockSize); err == nil {
			t.Errorf("pass %d: a closed stream decoded without error", pass)
		}
	}
}

// TestStreamFileOutlivesReplacement: once a stream holds its store
// file, evicting the file or renaming another capture over its path
// changes nothing the stream decodes.
func TestStreamFileOutlivesReplacement(t *testing.T) {
	dir := t.TempDir()
	s, path := persistedMultiChunk(t, dir)
	want, err := decodeAll(s, DecodeBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if got, err := decodeAll(s, DecodeBlockSize); err != nil || !slices.Equal(got, want) {
		t.Fatalf("after eviction the stream decodes differently (err %v)", err)
	}
	// Another capture's file renamed over the path.
	other := filepath.Join(t.TempDir(), "other.l2s")
	if err := os.WriteFile(other, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(other, path); err != nil {
		t.Fatal(err)
	}
	if got, err := decodeAll(s, DecodeBlockSize); err != nil || !slices.Equal(got, want) {
		t.Fatalf("after replacement the stream decodes differently (err %v)", err)
	}
	s.Close()
}

// TestStreamFileFlipFailsDecode: a byte of the store file's events
// flipped after the stream loaded it fails the decode pass with a
// corruption error, wherever the byte sits, before the pass ends
// cleanly.
func TestStreamFileFlipFailsDecode(t *testing.T) {
	dir := t.TempDir()
	seed, path := persistedMultiChunk(t, dir)
	size := seed.FootprintBytes()
	seed.Close()
	for _, off := range []int64{0, size / 2, size - 1} {
		s, _ := persistedMultiChunk(t, dir)
		if s.file == nil {
			t.Fatal("the stream was recaptured, not loaded")
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, storeHeaderSize+off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.WriteAt(b, storeHeaderSize+off); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := decodeAll(s, DecodeBlockSize); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("byte %d of %d flipped: decode error %v, want a corrupt-stream error", off, size, err)
		}
		s.Close()
		// Flip it back, so the next round loads a valid file.
		f, err = os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.WriteAt(b, storeHeaderSize+off); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// TestStreamDescriptors: a saved or loaded stream holds one descriptor
// on its store file, and a stream captured without a capture directory
// one on its unnamed file in TMPDIR; Close releases it, and so does
// the garbage collector when the stream is dropped without one.
func TestStreamDescriptors(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	unnamed := func(t *testing.T, _ string) (*Stream, string) {
		s, err := multiChunkCapture(t, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s, ""
	}
	for _, c := range []struct {
		name, dir string
		get       func(*testing.T, string) (*Stream, string)
	}{
		{"store", dir, persistedMultiChunk},
		{"no-dir", tmp, unnamed},
	} {
		s, _ := c.get(t, dir)
		if n := openStreamFiles(t, c.dir); n != 1 {
			t.Fatalf("%s: a captured stream holds %d descriptors, want 1", c.name, n)
		}
		s.Close()
		if n := openStreamFiles(t, c.dir); n != 0 {
			t.Fatalf("%s: %d descriptors open after Close, want 0", c.name, n)
		}
		func() {
			c.get(t, dir) // loaded from the store, or captured again
			if n := openStreamFiles(t, c.dir); n != 1 {
				t.Fatalf("%s: a second stream holds %d descriptors, want 1", c.name, n)
			}
		}()
		for i := 0; openStreamFiles(t, c.dir) > 0; i++ {
			if i == 100 {
				t.Fatalf("%s: a dropped stream's descriptor stayed open through 100 collections", c.name)
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
	if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
		t.Errorf("captures without a capture directory left %v in TMPDIR", ents)
	}
}

// TestStoreGCRescansOnlyOverBudget: with a byte budget set, the store
// lists its directory once when the budget is installed and again
// only when its running total of bytes written passes the budget —
// not after every stream and sidecar save — and that rescan still
// evicts.
func TestStoreGCRescansOnlyOverBudget(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetStoreMaxBytes(1 << 40)
	st := cache.store
	cfg := testConfig(3000)
	recs := testRecords(2000)
	for i := 0; i < 20; i++ {
		s, err := cache.GetOrCaptureFrom(Key{Workload: string(rune('a' + i)), Config: cfg}, sliceOpen(recs))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := derived(s, eventCountSpec("test:gcscan"), countEvents(nil)); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	if got := len(derivedFiles(t, dir)); got != 20 {
		t.Fatalf("test premise broken: %d sidecars written, want 20", got)
	}
	if st.scans != 1 {
		t.Errorf("40 saves under budget scanned the directory %d times, want once (at SetStoreMaxBytes)", st.scans)
	}

	evict0 := obsStoreEvictions.Value()
	st.mu.Lock()
	st.limit = st.total + 1 // the next save passes the budget
	st.mu.Unlock()
	s, err := cache.GetOrCaptureFrom(Key{Workload: "over", Config: cfg}, sliceOpen(recs))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st.scans != 2 {
		t.Errorf("a save over budget left the scan count at %d, want 2", st.scans)
	}
	if obsStoreEvictions.Value() == evict0 {
		t.Error("the rescan over budget evicted nothing")
	}
	if st.total > st.limit {
		t.Errorf("after the rescan the running total %d exceeds the budget %d", st.total, st.limit)
	}
}
