package l2stream

import (
	"fmt"
	"sync"
	"testing"

	"github.com/chirplab/chirp/internal/trace"
)

// TestRaceDerivedClose hammers derived-view memoization on one stream
// from several goroutines at once — the single-flight slots that
// replayMulti's per-policy goroutines share — while Cache.Close runs
// beside them. It asserts no outcome beyond the documented contracts —
// views stay correct, and stay valid after Close — and leaves the
// interleavings to the race detector (CI runs this package with -race
// -count=2).
func TestRaceDerivedClose(t *testing.T) {
	recs := testRecords(4000)
	cfg := testConfig(6000)
	c := NewCache(0)

	s, err := c.GetOrCapture(Key{Workload: "mem", Config: cfg}, func(maxBytes int64) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := int(s.Events())

	// Several small view families so the builders contend on the
	// derivedMu map as well as on individual slots.
	specs := make([]*DerivedSpec, 4)
	for i := range specs {
		specs[i] = &DerivedSpec{Key: fmt.Sprintf("racestress/v1/%d", i)}
	}
	build := func(s *Stream) (any, error) {
		evs, err := decodeAll(s, DecodeBlockSize)
		if err != nil {
			return nil, err
		}
		return len(evs), nil
	}

	const builders, rounds = 3, 400
	var wg sync.WaitGroup
	start := make(chan struct{})

	for g := 0; g < builders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				v, err := derived(s, specs[i%len(specs)], build)
				if err != nil {
					t.Errorf("DerivedAll: %v", err)
					return
				}
				if n := v.(int); n != wantEvents {
					t.Errorf("derived view sees %d events, want %d", n, wantEvents)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		c.Close()
	}()

	close(start)
	wg.Wait()

	// Derived views remain valid after Close: the stream owns them.
	for _, spec := range specs {
		v, err := derived(s, spec, build)
		if err != nil || v.(int) != wantEvents {
			t.Errorf("derived view %q after close: %v, %v", spec.Key, v, err)
		}
	}
}
