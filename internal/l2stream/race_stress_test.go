package l2stream

import (
	"fmt"
	"sync"
	"testing"
)

// TestRaceDerivedClose hammers one persistent stream's sidecars from
// several goroutines at once — each round reads a view's sidecar or,
// missing it, builds the view and stages, commits and renames a new
// one over whatever another goroutine renamed there — while Cache.Close
// runs beside them. It asserts no outcome beyond the documented
// contracts — views stay correct, and stay readable after Close — and
// leaves the interleavings to the race detector (CI runs this package
// with -race -count=2).
func TestRaceDerivedClose(t *testing.T) {
	recs := testRecords(4000)
	cfg := testConfig(6000)
	c, err := NewPersistent(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	s, err := c.GetOrCaptureFrom(Key{Workload: "mem", Config: cfg}, sliceOpen(recs))
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := s.Events()

	// Several small view families, so the writers contend on the
	// directory as well as on each file.
	specs := make([]*DerivedSpec, 4)
	for i := range specs {
		specs[i] = eventCountSpec(fmt.Sprintf("racestress/v1/%d", i))
	}
	build := countEvents(nil)

	const builders, rounds = 3, 100
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
					t.Errorf("derived: %v", err)
					return
				}
				if n := v.(uint64); n != wantEvents {
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

	// The sidecars stay readable after Close: the stream locates them.
	for _, spec := range specs {
		v, err := derived(s, spec, build)
		if err != nil || v.(uint64) != wantEvents {
			t.Errorf("derived view %q after close: %v, %v", spec.Key, v, err)
		}
	}
}
