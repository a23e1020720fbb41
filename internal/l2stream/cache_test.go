package l2stream

import (
	"os"
	"sync"
	"testing"
	"time"

	"github.com/chirplab/chirp/internal/trace"
)

// waitForCounter polls until the counter has grown past base — the
// only way to observe that a concurrent GetOrCapture caller reached
// the blocked-waiter path (it bumps the waits counter immediately
// before blocking).
func waitForCounter(t *testing.T, value func() uint64, base uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for value() <= base {
		if time.Now().After(deadline) {
			t.Fatal("counter never advanced; waiter did not block")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheConcurrentRetryAfterFailure is the regression test for the
// failed-capture retry race: a caller already blocked on an in-flight
// capture that then FAILS must not inherit the memoized error — it
// must re-check the map and retry. The old sync.Once memo made the
// waiter's once.Do a no-op, so it was stuck with the dead entry
// forever.
func TestCacheConcurrentRetryAfterFailure(t *testing.T) {
	recs := testRecords(500)
	cfg := testConfig(800)
	c := NewCache(0, t.TempDir())
	defer c.Close()
	key := Key{Workload: "w", Config: cfg}

	var mu sync.Mutex
	captures := 0
	started := make(chan struct{})
	release := make(chan struct{})
	waitsBase := obsCacheWaits.Value()

	// Owner: starts capturing, then fails once released.
	ownerErr := make(chan error, 1)
	go func() {
		_, err := c.GetOrCapture(key, func(CaptureOptions) (*Stream, error) {
			mu.Lock()
			captures++
			mu.Unlock()
			close(started)
			<-release
			return nil, os.ErrPermission
		})
		ownerErr <- err
	}()
	<-started

	// Waiter: arrives while the owner's capture is in flight, blocks,
	// and — after the failure — must retry with its own (succeeding)
	// capture.
	type got struct {
		s   *Stream
		err error
	}
	waiterGot := make(chan got, 1)
	go func() {
		s, err := c.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
			mu.Lock()
			captures++
			mu.Unlock()
			return Capture(trace.NewSliceSource(recs), cfg, opts)
		})
		waiterGot <- got{s, err}
	}()
	waitForCounter(t, obsCacheWaits.Value, waitsBase)
	close(release)

	if err := <-ownerErr; err == nil {
		t.Fatal("owner's failed capture reported no error")
	}
	w := <-waiterGot
	if w.err != nil {
		t.Fatalf("waiter inherited the failure instead of retrying: %v", w.err)
	}
	if w.s == nil || w.s.Events() == 0 {
		t.Fatal("waiter's retry produced no stream")
	}
	mu.Lock()
	defer mu.Unlock()
	if captures != 2 {
		t.Errorf("capture ran %d times, want 2 (owner fails, waiter retries)", captures)
	}
}

// TestCacheWaitAccounting: a caller that blocks on an in-flight
// capture pays full capture latency and must count as a wait, not a
// hit; a caller that arrives after completion is the hit.
func TestCacheWaitAccounting(t *testing.T) {
	recs := testRecords(500)
	cfg := testConfig(800)
	c := NewCache(0, t.TempDir())
	defer c.Close()
	key := Key{Workload: "w", Config: cfg}

	hits0, misses0, waits0 := obsCacheHits.Value(), obsCacheMisses.Value(), obsCacheWaits.Value()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 2)
	go func() {
		_, err := c.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
			close(started)
			<-release
			return Capture(trace.NewSliceSource(recs), cfg, opts)
		})
		done <- err
	}()
	<-started
	go func() {
		_, err := c.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
			t.Error("waiter ran a second capture")
			return Capture(trace.NewSliceSource(recs), cfg, opts)
		})
		done <- err
	}()
	waitForCounter(t, obsCacheWaits.Value, waits0)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// A post-completion caller is a plain hit.
	if _, err := c.GetOrCapture(key, func(CaptureOptions) (*Stream, error) {
		t.Error("hit ran a capture")
		return nil, os.ErrInvalid
	}); err != nil {
		t.Fatal(err)
	}
	if d := obsCacheMisses.Value() - misses0; d != 1 {
		t.Errorf("misses delta = %d, want 1 (the owner)", d)
	}
	if d := obsCacheWaits.Value() - waits0; d != 1 {
		t.Errorf("waits delta = %d, want 1 (the blocked caller)", d)
	}
	if d := obsCacheHits.Value() - hits0; d != 1 {
		t.Errorf("hits delta = %d, want 1 (the post-completion caller)", d)
	}
}

// TestRetainSpillDefersDeletion: Close while a replay holds the spill
// file retained must leave the file on disk until the reference drops —
// the "in-flight replays keep working" contract for spilled streams.
func TestRetainSpillDefersDeletion(t *testing.T) {
	recs := testRecords(4000)
	cfg := testConfig(6000)
	sp, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{MaxBytes: 64, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Spilled() {
		t.Fatal("64-byte budget must force a spill")
	}
	path, releaseA, err := sp.RetainSpill()
	if err != nil {
		t.Fatal(err)
	}
	_, releaseB, err := sp.RetainSpill()
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatalf("Close with readers: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Close deleted the spill file under %d readers: %v", 2, err)
	}
	releaseA()
	if _, err := os.Stat(path); err != nil {
		t.Fatal("first release deleted the file while a reader remains")
	}
	releaseB()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("last release must delete the closed spill file")
	}
	if _, _, err := sp.RetainSpill(); err == nil {
		t.Error("RetainSpill after Close must fail")
	}
}

// TestCacheCloseRacesSpilledReplay drives the cache-level version of
// the same contract: GetOrCapture hands out a spilled stream, a
// "replay" retains it, Cache.Close runs, and the file must survive
// until release.
func TestCacheCloseRacesSpilledReplay(t *testing.T) {
	recs := testRecords(4000)
	cfg := testConfig(6000)
	c := NewCache(64, t.TempDir())
	s, err := c.GetOrCapture(Key{Workload: "w", Config: cfg}, func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Spilled() {
		t.Fatal("64-byte cache budget must force a spill")
	}
	path, release, err := s.RetainSpill()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Cache.Close: %v", err)
	}
	fs, err := trace.OpenFile(path)
	if err != nil {
		t.Fatalf("spill file unreadable after Cache.Close: %v", err)
	}
	n := len(trace.Collect(fs))
	fs.Close()
	if uint64(n) != s.Records() {
		t.Errorf("read %d records mid-Close, want %d", n, s.Records())
	}
	release()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("release after Cache.Close must delete the spill file")
	}
}

// TestEvictOversizedStreamStays: a single stream whose footprint
// exceeds the whole budget must stay resident (there is nothing useful
// to evict it for), not thrash in and out. Capture itself spills
// rather than over-committing, so the oversized-resident case arises
// through the persistent tier: a small-budget cache loading a capture
// a bigger-budget process persisted.
func TestEvictOversizedStreamStays(t *testing.T) {
	recs := testRecords(2000)
	cfg := testConfig(3000)
	dir := t.TempDir()
	big, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := big.GetOrCapture(Key{Workload: "big", Config: cfg}, func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seed.Spilled() {
		t.Fatal("default-budget capture must stay in memory")
	}
	if err := big.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := NewPersistent(seed.FootprintBytes()/2, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.GetOrCapture(Key{Workload: "big", Config: cfg}, func(CaptureOptions) (*Stream, error) {
		t.Error("persisted capture was re-captured")
		return nil, os.ErrInvalid
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Spilled() {
		t.Fatal("persisted in-memory stream loaded as spilled")
	}
	if c.Used() <= c.Budget() {
		t.Fatalf("test premise broken: resident %d fits budget %d", c.Used(), c.Budget())
	}
	if c.Len() != 1 {
		t.Fatalf("oversized stream evicted: cache holds %d entries, want 1", c.Len())
	}
	// And it is a hit on re-request, not a recapture.
	if _, err := c.GetOrCapture(Key{Workload: "big", Config: cfg}, func(CaptureOptions) (*Stream, error) {
		t.Error("oversized stream was recaptured")
		return nil, os.ErrInvalid
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEvictSparesKeep: when the entry that just finished capturing is
// itself the eviction candidate set's LRU, eviction must take the next
// oldest entry, never the one about to be returned.
func TestEvictSparesKeep(t *testing.T) {
	recs := testRecords(2000)
	cfg := testConfig(3000)
	probe, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	one := probe.FootprintBytes()
	c := NewCache(one+one/2, t.TempDir())
	defer c.Close()
	capture := func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, opts)
	}
	if _, err := c.GetOrCapture(Key{Workload: "old", Config: cfg}, capture); err != nil {
		t.Fatal(err)
	}
	// "new" finishes with zero lastUse — nominally the LRU — but must
	// survive its own commit's eviction pass.
	if _, err := c.GetOrCapture(Key{Workload: "new", Config: cfg}, capture); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	if _, err := c.GetOrCapture(Key{Workload: "new", Config: cfg}, func(CaptureOptions) (*Stream, error) {
		t.Error("keep entry was evicted by its own commit")
		return nil, os.ErrInvalid
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheGaugeConsistency: the shared residency gauges must track
// the cache's accounting through capture, eviction, and Close — ending
// exactly where they started.
func TestCacheGaugeConsistency(t *testing.T) {
	recs := testRecords(2000)
	cfg := testConfig(3000)
	probe, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	one := probe.FootprintBytes()
	bytes0, streams0 := obsCacheBytes.Value(), obsCacheStreams.Value()
	evict0 := obsCacheEvictions.Value()

	c := NewCache(2*one+one/2, t.TempDir())
	capture := func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, opts)
	}
	for _, w := range []string{"a", "b", "c"} {
		if _, err := c.GetOrCapture(Key{Workload: w, Config: cfg}, capture); err != nil {
			t.Fatal(err)
		}
	}
	if d := obsCacheEvictions.Value() - evict0; d != 1 {
		t.Errorf("evictions delta = %d, want 1", d)
	}
	if d := obsCacheBytes.Value() - bytes0; d != c.Used() {
		t.Errorf("bytes gauge delta = %d, cache accounts %d", d, c.Used())
	}
	if d := obsCacheStreams.Value() - streams0; d != int64(c.Len()) {
		t.Errorf("streams gauge delta = %d, cache holds %d", d, c.Len())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := obsCacheBytes.Value() - bytes0; d != 0 {
		t.Errorf("bytes gauge leaks %d after Close", d)
	}
	if d := obsCacheStreams.Value() - streams0; d != 0 {
		t.Errorf("streams gauge leaks %d after Close", d)
	}
}

// TestCaptureBudgetChargesEncodedBuffer: the spill decision and the
// cache's charge both see the encoded buffer alone. A budget of exactly
// the buffer's size keeps the capture in memory and charges it exactly
// that; one byte less spills it. The old rule — 32 B per event plus
// 32 B per access on top of the buffer — would have spilled both.
func TestCaptureBudgetChargesEncodedBuffer(t *testing.T) {
	recs := testRecords(3000)
	cfg := testConfig(5000)
	probe, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bufBytes := int64(probe.MemBytes())
	if old := bufBytes + int64(probe.Events()+probe.Accesses()+1)*32; old <= bufBytes {
		t.Fatalf("test premise broken: old charge %d does not exceed the buffer %d", old, bufBytes)
	}
	capture := func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, opts)
	}

	fits := NewCache(bufBytes, t.TempDir())
	defer fits.Close()
	s, err := fits.GetOrCapture(Key{Workload: "fits", Config: cfg}, capture)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spilled() {
		t.Fatal("a capture whose buffer fits the budget spilled")
	}
	if s.FootprintBytes() != bufBytes || fits.Used() != bufBytes {
		t.Errorf("charged %d (cache.Used %d), want the %d-byte buffer", s.FootprintBytes(), fits.Used(), bufBytes)
	}

	spills0 := obsCacheSpills.Value()
	over := NewCache(bufBytes-1, t.TempDir())
	defer over.Close()
	s, err = over.GetOrCapture(Key{Workload: "over", Config: cfg}, capture)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Spilled() {
		t.Fatal("a capture whose buffer alone exceeds the budget stayed in memory")
	}
	if d := obsCacheSpills.Value() - spills0; d != 1 {
		t.Errorf("spills delta = %d, want 1", d)
	}
	if over.Used() != 0 {
		t.Errorf("spilled stream charged %d bytes, want 0", over.Used())
	}
}
