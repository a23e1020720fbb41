package l2stream

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
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
	c := NewCache(0)
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
		_, err := c.GetOrCapture(key, func(int64) (*Stream, error) {
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
		s, err := c.GetOrCapture(key, func(maxBytes int64) (*Stream, error) {
			mu.Lock()
			captures++
			mu.Unlock()
			return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
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
	c := NewCache(0)
	defer c.Close()
	key := Key{Workload: "w", Config: cfg}

	hits0, misses0, waits0 := obsCacheHits.Value(), obsCacheMisses.Value(), obsCacheWaits.Value()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 2)
	go func() {
		_, err := c.GetOrCapture(key, func(maxBytes int64) (*Stream, error) {
			close(started)
			<-release
			return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
		})
		done <- err
	}()
	<-started
	go func() {
		_, err := c.GetOrCapture(key, func(maxBytes int64) (*Stream, error) {
			t.Error("waiter ran a second capture")
			return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
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
	if _, err := c.GetOrCapture(key, func(int64) (*Stream, error) {
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

// TestEvictOversizedStreamStays: a single stream whose footprint
// exceeds the whole budget must stay resident (there is nothing useful
// to evict it for), not thrash in and out. Capture itself refuses to
// over-commit (ErrOverBudget), so the oversized-resident case arises
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
	seed, err := big.GetOrCapture(Key{Workload: "big", Config: cfg}, func(maxBytes int64) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
	})
	if err != nil {
		t.Fatal(err)
	}
	big.Close()

	c, err := NewPersistent(seed.FootprintBytes()/2, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.GetOrCapture(Key{Workload: "big", Config: cfg}, func(int64) (*Stream, error) {
		t.Error("persisted capture was re-captured")
		return nil, os.ErrInvalid
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.FootprintBytes() != seed.FootprintBytes() {
		t.Fatalf("persisted stream loaded with %d bytes, want %d", s.FootprintBytes(), seed.FootprintBytes())
	}
	if c.Used() <= c.Budget() {
		t.Fatalf("test premise broken: resident %d fits budget %d", c.Used(), c.Budget())
	}
	if c.Len() != 1 {
		t.Fatalf("oversized stream evicted: cache holds %d entries, want 1", c.Len())
	}
	// And it is a hit on re-request, not a recapture.
	if _, err := c.GetOrCapture(Key{Workload: "big", Config: cfg}, func(int64) (*Stream, error) {
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
	probe, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := probe.FootprintBytes()
	c := NewCache(one + one/2)
	defer c.Close()
	capture := func(maxBytes int64) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
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
	if _, err := c.GetOrCapture(Key{Workload: "new", Config: cfg}, func(int64) (*Stream, error) {
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
	probe, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := probe.FootprintBytes()
	bytes0, streams0 := obsCacheBytes.Value(), obsCacheStreams.Value()
	evict0 := obsCacheEvictions.Value()

	c := NewCache(2*one + one/2)
	capture := func(maxBytes int64) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
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
	c.Close()
	if d := obsCacheBytes.Value() - bytes0; d != 0 {
		t.Errorf("bytes gauge leaks %d after Close", d)
	}
	if d := obsCacheStreams.Value() - streams0; d != 0 {
		t.Errorf("streams gauge leaks %d after Close", d)
	}
}

// TestCaptureBudgetChargesEncodedBuffer: the budget check and the
// cache's charge both see the encoded buffer alone. A budget of exactly
// the buffer's size keeps the capture in memory and charges it exactly
// that. The old rule — 32 B per event plus 32 B per access on top of
// the buffer — would not have fit.
func TestCaptureBudgetChargesEncodedBuffer(t *testing.T) {
	recs := testRecords(3000)
	cfg := testConfig(5000)
	probe, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	bufBytes := probe.FootprintBytes()
	if old := bufBytes + int64(probe.Events()+probe.Accesses()+1)*32; old <= bufBytes {
		t.Fatalf("test premise broken: old charge %d does not exceed the buffer %d", old, bufBytes)
	}

	fits := NewCache(bufBytes)
	defer fits.Close()
	s, err := fits.GetOrCapture(Key{Workload: "fits", Config: cfg}, func(maxBytes int64) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.FootprintBytes() != bufBytes || fits.Used() != bufBytes {
		t.Errorf("charged %d (cache.Used %d), want the %d-byte buffer", s.FootprintBytes(), fits.Used(), bufBytes)
	}
}

// TestCaptureOverBudget extends the boundary check above: a budget one
// byte below the buffer abandons the capture with ErrOverBudget. The
// cache counts it once, charges nothing, and remembers the outcome, so
// concurrent waiters and later callers get ErrOverBudget back without
// running the capture again.
func TestCaptureOverBudget(t *testing.T) {
	recs := testRecords(3000)
	cfg := testConfig(5000)
	probe, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	bufBytes := probe.FootprintBytes()
	if s, err := Capture(trace.NewSliceSource(recs), cfg, bufBytes); err != nil || s.FootprintBytes() != bufBytes {
		t.Fatalf("budget equal to the %d-byte buffer: stream %v, err %v", bufBytes, s, err)
	}
	if _, err := Capture(trace.NewSliceSource(recs), cfg, bufBytes-1); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("budget one byte below the buffer: err = %v, want ErrOverBudget", err)
	}

	c := NewCache(bufBytes - 1)
	defer c.Close()
	key := Key{Workload: "over", Config: cfg}
	var captures atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	capture := func(maxBytes int64) (*Stream, error) {
		if captures.Add(1) == 1 {
			close(started)
			<-release
		}
		return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
	}
	over0, waits0 := obsCacheOverBudget.Value(), obsCacheWaits.Value()

	const waiters = 3
	errs := make(chan error, waiters+1)
	go func() {
		_, err := c.GetOrCapture(key, capture)
		errs <- err
	}()
	<-started
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := c.GetOrCapture(key, capture)
			errs <- err
		}()
	}
	waitForCounter(t, obsCacheWaits.Value, waits0+waiters-1)
	close(release)
	for i := 0; i < waiters+1; i++ {
		if err := <-errs; !errors.Is(err, ErrOverBudget) {
			t.Errorf("caller %d: err = %v, want ErrOverBudget", i, err)
		}
	}
	if _, err := c.GetOrCapture(key, capture); !errors.Is(err, ErrOverBudget) {
		t.Errorf("later caller: err = %v, want ErrOverBudget", err)
	}
	if n := captures.Load(); n != 1 {
		t.Errorf("capture ran %d times, want 1", n)
	}
	if d := obsCacheOverBudget.Value() - over0; d != 1 {
		t.Errorf("over-budget counter delta = %d, want 1", d)
	}
	if c.Used() != 0 {
		t.Errorf("over-budget capture charged %d bytes, want 0", c.Used())
	}
}

// TestCacheCloseKeepsHeldStreams: Close drops every entry, resident
// streams and remembered over-budget keys alike, and returns the
// cache's bytes and streams to the gauges. A stream a replay already
// holds still decodes to the events it was captured with. After Close
// the cache starts over, so both keys run their capture again.
func TestCacheCloseKeepsHeldStreams(t *testing.T) {
	recs, cfg := testRecords(3000), testConfig(5000)
	bigRecs, bigCfg := testRecords(6000), testConfig(10000)
	probe, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeAll(probe, DecodeBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	bufBytes := probe.FootprintBytes()
	if big, err := Capture(trace.NewSliceSource(bigRecs), bigCfg, 0); err != nil || big.FootprintBytes() <= bufBytes {
		t.Fatalf("test premise broken: big capture %v, err %v, must exceed %d bytes", big, err, bufBytes)
	}

	c := NewCache(bufBytes)
	defer c.Close()
	fits := Key{Workload: "fits", Config: cfg}
	over := Key{Workload: "over", Config: bigCfg}
	var captures atomic.Int32
	captureOf := func(recs []trace.Record, cfg Config) func(int64) (*Stream, error) {
		return func(maxBytes int64) (*Stream, error) {
			captures.Add(1)
			return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
		}
	}
	bytes0, streams0 := obsCacheBytes.Value(), obsCacheStreams.Value()

	held, err := c.GetOrCapture(fits, captureOf(recs, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrCapture(over, captureOf(bigRecs, bigCfg)); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("over key: err = %v, want ErrOverBudget", err)
	}
	if c.Len() != 2 || c.Used() != bufBytes {
		t.Fatalf("before Close: Len %d Used %d, want 2 and %d", c.Len(), c.Used(), bufBytes)
	}

	c.Close()
	if c.Len() != 0 || c.Used() != 0 {
		t.Errorf("after Close: Len %d Used %d, want 0 and 0", c.Len(), c.Used())
	}
	if b, n := obsCacheBytes.Value(), obsCacheStreams.Value(); b != bytes0 || n != streams0 {
		t.Errorf("after Close: gauges bytes %d streams %d, want %d and %d", b, n, bytes0, streams0)
	}
	got, err := decodeAll(held, DecodeBlockSize)
	if err != nil {
		t.Fatalf("held stream after Close: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("held stream decodes %d events after Close, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("held stream event %d diverged after Close", i)
		}
	}

	captures.Store(0)
	if _, err := c.GetOrCapture(fits, captureOf(recs, cfg)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrCapture(over, captureOf(bigRecs, bigCfg)); !errors.Is(err, ErrOverBudget) {
		t.Errorf("over key after Close: err = %v, want ErrOverBudget", err)
	}
	if n := captures.Load(); n != 2 {
		t.Errorf("after Close ran %d captures, want 2 (one per key)", n)
	}
}

// TestCachePanickingCaptureRetries: a capture that panics must not
// leave its entry behind. A caller blocked on it, and every later
// caller, captures again instead of receiving a nil stream with a nil
// error.
func TestCachePanickingCaptureRetries(t *testing.T) {
	recs := testRecords(500)
	cfg := testConfig(800)
	c := NewCache(0)
	defer c.Close()
	key := Key{Workload: "w", Config: cfg}
	good := func(maxBytes int64) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	waitsBase := obsCacheWaits.Value()
	ownerPanic := make(chan any, 1)
	go func() {
		defer func() { ownerPanic <- recover() }()
		c.GetOrCapture(key, func(int64) (*Stream, error) {
			close(started)
			<-release
			panic("capture bug")
		})
	}()
	<-started

	type got struct {
		s   *Stream
		err error
	}
	waiterGot := make(chan got, 1)
	go func() {
		s, err := c.GetOrCapture(key, good)
		waiterGot <- got{s, err}
	}()
	waitForCounter(t, obsCacheWaits.Value, waitsBase)
	close(release)

	if r := <-ownerPanic; r != "capture bug" {
		t.Fatalf("owner recovered %v, want the capture's own panic", r)
	}
	w := <-waiterGot
	if w.err != nil || w.s == nil {
		t.Fatalf("waiter on a panicked capture got (%v, %v), want a fresh capture", w.s, w.err)
	}
	s, err := c.GetOrCapture(key, func(int64) (*Stream, error) {
		t.Error("a later caller recaptured a stream the waiter already captured")
		return good(c.Budget())
	})
	if err != nil || s != w.s {
		t.Errorf("later caller got (%p, %v), want the waiter's stream %p", s, err, w.s)
	}
}

// TestCacheDropReleasesStream: Drop removes a resident stream and its
// bytes, the gauges follow, and a caller holding the stream keeps it;
// the key captures again afterwards. A remembered over-budget outcome
// survives Drop, so the doomed capture never reruns.
func TestCacheDropReleasesStream(t *testing.T) {
	recs, cfg := testRecords(3000), testConfig(5000)
	bigRecs, bigCfg := testRecords(6000), testConfig(10000)
	probe, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	bufBytes := probe.FootprintBytes()
	c := NewCache(bufBytes)
	defer c.Close()
	fits := Key{Workload: "fits", Config: cfg}
	over := Key{Workload: "over", Config: bigCfg}
	var captures atomic.Int32
	captureOf := func(recs []trace.Record, cfg Config) func(int64) (*Stream, error) {
		return func(maxBytes int64) (*Stream, error) {
			captures.Add(1)
			return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
		}
	}
	bytes0, streams0 := obsCacheBytes.Value(), obsCacheStreams.Value()
	held, err := c.GetOrCapture(fits, captureOf(recs, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrCapture(over, captureOf(bigRecs, bigCfg)); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("over key: err = %v, want ErrOverBudget", err)
	}

	c.Drop(fits)
	c.Drop(over)
	c.Drop(Key{Workload: "absent", Config: cfg})
	if c.Len() != 1 || c.Used() != 0 {
		t.Errorf("after Drop: Len %d Used %d, want 1 (the over-budget key) and 0", c.Len(), c.Used())
	}
	if b, n := obsCacheBytes.Value(), obsCacheStreams.Value(); b != bytes0 || n != streams0 {
		t.Errorf("after Drop: gauges bytes %d streams %d, want %d and %d", b, n, bytes0, streams0)
	}
	if got, err := decodeAll(held, DecodeBlockSize); err != nil || len(got) == 0 {
		t.Errorf("held stream after Drop: %d events, err %v", len(got), err)
	}

	captures.Store(0)
	if _, err := c.GetOrCapture(over, captureOf(bigRecs, bigCfg)); !errors.Is(err, ErrOverBudget) {
		t.Errorf("over key after Drop: err = %v, want ErrOverBudget", err)
	}
	if _, err := c.GetOrCapture(fits, captureOf(recs, cfg)); err != nil {
		t.Fatal(err)
	}
	if n := captures.Load(); n != 1 {
		t.Errorf("after Drop: %d captures, want 1 (the dropped key only)", n)
	}
}
