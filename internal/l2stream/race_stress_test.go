package l2stream

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"github.com/chirplab/chirp/internal/trace"
)

// TestRaceDerivedCloseRetain hammers the three surfaces that cross
// goroutines in a real sweep at the same time: derived-view
// memoization on an in-memory stream (single-flight slot.once plus the
// growth-hook accounting callback into the cache), RetainSpill/release
// reference counting on a spilled stream, and Cache.Close tearing the
// cache down underneath both. It asserts no outcome beyond the
// documented contracts — views stay correct, a retained path stays
// readable, RetainSpill after Close fails cleanly, the file is gone
// once the last reference drops — and leaves the interleavings to the
// race detector (CI runs this package with -race -count=2).
func TestRaceDerivedCloseRetain(t *testing.T) {
	recs := testRecords(4000)
	cfg := testConfig(6000)
	dir := t.TempDir()
	c := NewCache(0, dir)

	inmem, err := c.GetOrCapture(Key{Workload: "mem", Config: cfg}, func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if inmem.Spilled() {
		t.Fatal("unbudgeted capture must stay in memory")
	}
	wantEvents := int(inmem.Events())

	spilled, err := c.GetOrCapture(Key{Workload: "spill", Config: cfg}, func(CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{MaxBytes: 64, SpillDir: dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !spilled.Spilled() {
		t.Fatal("64-byte budget must force a spill")
	}

	// Several small view families so the builders contend on the
	// derivedMu map as well as on individual slots.
	specs := make([]*DerivedSpec, 4)
	for i := range specs {
		specs[i] = &DerivedSpec{
			Key: fmt.Sprintf("racestress/v1/%d", i),
			Build: func(s *Stream) (any, error) {
				evs, err := decodeAll(s, DecodeBlockSize)
				if err != nil {
					return nil, err
				}
				return len(evs), nil
			},
			Bytes: func(any) int64 { return 8 },
		}
	}

	const builders, retainers, rounds = 3, 3, 400
	var wg sync.WaitGroup
	start := make(chan struct{})
	closed := make(chan struct{})

	for g := 0; g < builders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				v, err := inmem.Derived(specs[i%len(specs)])
				if err != nil {
					t.Errorf("Derived on an in-memory stream: %v", err)
					return
				}
				if n := v.(int); n != wantEvents {
					t.Errorf("derived view sees %d events, want %d", n, wantEvents)
					return
				}
			}
		}()
	}

	for g := 0; g < retainers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				path, release, err := spilled.RetainSpill()
				if err != nil {
					// Close won the race: the documented clean failure.
					return
				}
				if _, err := os.Stat(path); err != nil {
					t.Errorf("retained spill file missing: %v", err)
					release()
					return
				}
				release()
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := c.Close(); err != nil {
			t.Errorf("Cache.Close under load: %v", err)
		}
		close(closed)
	}()

	close(start)
	wg.Wait()
	<-closed

	// The spill path must be fully torn down: no new references, no
	// file once the last in-flight release ran.
	if _, _, err := spilled.RetainSpill(); err == nil {
		t.Error("RetainSpill after Cache.Close must fail")
	}
	if _, err := os.Stat(spilled.SpillPath()); !os.IsNotExist(err) {
		t.Errorf("spill file survives close with no references: %v", err)
	}

	// Derived views remain valid after the cache is gone — the stream
	// owns them, the cache only accounted them.
	for _, spec := range specs {
		v, err := inmem.Derived(spec)
		if err != nil || v.(int) != wantEvents {
			t.Errorf("derived view %q after close: %v, %v", spec.Key, v, err)
		}
	}
}
