package l2stream

import (
	"errors"
	"os"
	"sync/atomic"
	"testing"

	"github.com/chirplab/chirp/internal/trace"
)

// TestCacheConcurrentRetryAfterFailure: callers of one key share
// nothing. A caller that arrives while another's capture of the key is
// still in flight runs its own capture, and it keeps its stream when
// the other capture then fails.
func TestCacheConcurrentRetryAfterFailure(t *testing.T) {
	recs := testRecords(500)
	cfg := testConfig(800)
	c := NewCache(0)
	key := Key{Workload: "w", Config: cfg}

	var captures atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})

	// Owner: starts capturing, then fails once released.
	ownerErr := make(chan error, 1)
	go func() {
		_, err := c.GetOrCaptureFrom(key, func() (trace.Source, error) {
			captures.Add(1)
			close(started)
			<-release
			return nil, os.ErrPermission
		})
		ownerErr <- err
	}()
	<-started

	// Second caller: arrives while the owner's capture is in flight and
	// finishes before it, with a capture of its own.
	s, err := c.GetOrCaptureFrom(key, func() (trace.Source, error) {
		captures.Add(1)
		return trace.NewSliceSource(recs), nil
	})
	close(release)
	if err != nil {
		t.Fatalf("second caller: %v", err)
	}
	if s == nil || s.Events() == 0 {
		t.Fatal("second caller's capture produced no stream")
	}
	if err := <-ownerErr; err == nil {
		t.Fatal("owner's failed capture reported no error")
	}
	if n := captures.Load(); n != 2 {
		t.Errorf("capture ran %d times, want 2 (one per caller)", n)
	}
}

// TestEvictOversizedStreamStays: a persisted stream larger than the
// cache's per-capture cap still loads. The cap bounds what a capture
// may encode, not what a previous process with a larger cap left in
// the capture directory, so every request of the key is a disk load,
// never a recapture.
func TestEvictOversizedStreamStays(t *testing.T) {
	recs := testRecords(2000)
	cfg := testConfig(3000)
	dir := t.TempDir()
	big, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := big.GetOrCaptureFrom(Key{Workload: "big", Config: cfg}, sliceOpen(recs))
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewPersistent(seed.FootprintBytes()/2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if seed.FootprintBytes() <= c.Budget() {
		t.Fatalf("test premise broken: the %d-byte stream fits the cap %d", seed.FootprintBytes(), c.Budget())
	}
	misses0, diskHits0 := obsCacheMisses.Value(), obsCacheDiskHits.Value()
	for i := 0; i < 2; i++ {
		s, err := c.GetOrCaptureFrom(Key{Workload: "big", Config: cfg}, func() (trace.Source, error) {
			t.Error("persisted capture was re-captured")
			return nil, os.ErrInvalid
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.FootprintBytes() != seed.FootprintBytes() {
			t.Fatalf("persisted stream loaded with %d bytes, want %d", s.FootprintBytes(), seed.FootprintBytes())
		}
	}
	if d := obsCacheMisses.Value() - misses0; d != 0 {
		t.Errorf("ran %d captures, want 0", d)
	}
	if d := obsCacheDiskHits.Value() - diskHits0; d != 2 {
		t.Errorf("loaded %d streams from disk, want 2", d)
	}
}

// TestCaptureBudgetChargesEncodedBuffer: the cap is checked against
// the encoded buffer alone. A cap of exactly the buffer's size keeps
// the capture. The old rule — 32 B per event plus 32 B per access on
// top of the buffer — would not have fit.
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
	s, err := fits.GetOrCaptureFrom(Key{Workload: "fits", Config: cfg}, sliceOpen(recs))
	if err != nil {
		t.Fatal(err)
	}
	if s.FootprintBytes() != bufBytes {
		t.Errorf("captured %d bytes, want the %d-byte buffer", s.FootprintBytes(), bufBytes)
	}
}

// TestCaptureOverBudget extends the boundary check above: a cap one
// byte below the buffer abandons the capture with ErrOverBudget. The
// cache remembers nothing, so every call runs the capture again, gets
// ErrOverBudget back, and counts once.
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
	key := Key{Workload: "over", Config: cfg}
	var captures atomic.Int32
	open := func() (trace.Source, error) {
		captures.Add(1)
		return trace.NewSliceSource(recs), nil
	}
	over0 := obsCacheOverBudget.Value()
	const calls = 3
	for i := 0; i < calls; i++ {
		if _, err := c.GetOrCaptureFrom(key, open); !errors.Is(err, ErrOverBudget) {
			t.Errorf("call %d: err = %v, want ErrOverBudget", i, err)
		}
	}
	if n := captures.Load(); n != calls {
		t.Errorf("capture ran %d times, want %d (one per call)", n, calls)
	}
	if d := obsCacheOverBudget.Value() - over0; d != calls {
		t.Errorf("over-budget counter delta = %d, want %d", d, calls)
	}
}

// TestCacheCloseKeepsHeldStreams: Close changes nothing. A stream a
// caller holds still decodes to the events it was captured with, and
// the cache goes on capturing: a key that fits captures again and a
// key over the cap fails with ErrOverBudget again.
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
	fits := Key{Workload: "fits", Config: cfg}
	over := Key{Workload: "over", Config: bigCfg}
	var captures atomic.Int32
	openOf := func(recs []trace.Record) func() (trace.Source, error) {
		return func() (trace.Source, error) {
			captures.Add(1)
			return trace.NewSliceSource(recs), nil
		}
	}

	held, err := c.GetOrCaptureFrom(fits, openOf(recs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrCaptureFrom(over, openOf(bigRecs)); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("over key: err = %v, want ErrOverBudget", err)
	}

	c.Close()
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
	if _, err := c.GetOrCaptureFrom(fits, openOf(recs)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrCaptureFrom(over, openOf(bigRecs)); !errors.Is(err, ErrOverBudget) {
		t.Errorf("over key after Close: err = %v, want ErrOverBudget", err)
	}
	if n := captures.Load(); n != 2 {
		t.Errorf("after Close ran %d captures, want 2 (one per key)", n)
	}
}

// TestCachePanickingCaptureRetries: a capture that panics leaves
// nothing behind. The panic reaches the caller that ran it, and the
// next call captures again and gets a stream, not a nil stream with a
// nil error.
func TestCachePanickingCaptureRetries(t *testing.T) {
	recs := testRecords(500)
	cfg := testConfig(800)
	c := NewCache(0)
	key := Key{Workload: "w", Config: cfg}

	func() {
		defer func() {
			if r := recover(); r != "capture bug" {
				t.Fatalf("caller recovered %v, want the capture's own panic", r)
			}
		}()
		c.GetOrCaptureFrom(key, func() (trace.Source, error) { panic("capture bug") })
	}()

	captures := 0
	s, err := c.GetOrCaptureFrom(key, func() (trace.Source, error) {
		captures++
		return trace.NewSliceSource(recs), nil
	})
	if err != nil || s == nil {
		t.Fatalf("call after a panicked capture got (%v, %v), want a fresh capture", s, err)
	}
	if captures != 1 {
		t.Errorf("call after a panicked capture ran %d captures, want 1", captures)
	}
}
