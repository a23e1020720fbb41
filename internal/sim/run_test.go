package sim

import (
	"context"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// TestRunEquivalence is the API-collapse contract: Run with a stream
// cache (capture/replay) and Run without one (direct) must both match
// RunTLBOnly bit for bit, for recency, signature and CHiRP policies
// alike.
func TestRunEquivalence(t *testing.T) {
	const name = "db-000"
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("workload %s missing", name)
	}
	cfg := DefaultTLBOnlyConfig(testInstr)
	factories, err := Factories([]string{"lru", "srrip", "ghrp", "chirp"})
	if err != nil {
		t.Fatal(err)
	}

	cache := l2stream.NewCache(0)
	defer cache.Close()
	ctx := context.Background()

	for _, f := range factories {
		want, err := RunTLBOnly(testSource(t, name), f.New(), cfg)
		if err != nil {
			t.Fatalf("%s RunTLBOnly: %v", f.Name, err)
		}
		direct, err := Run(ctx, RunSpec{Workload: w, Policy: f.New, Config: cfg})
		if err != nil {
			t.Fatalf("%s direct: %v", f.Name, err)
		}
		if direct != want {
			t.Errorf("%s: direct Run %+v != RunTLBOnly %+v", f.Name, direct, want)
		}
		replayed, err := Run(ctx, RunSpec{Workload: w, Policy: f.New, Config: cfg, Cache: cache})
		if err != nil {
			t.Fatalf("%s replay: %v", f.Name, err)
		}
		if replayed != want {
			t.Errorf("%s: replayed Run %+v != RunTLBOnly %+v", f.Name, replayed, want)
		}
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d streams, want 1 (one capture shared across policies)", cache.Len())
	}
}

// TestRunOpenSpec exercises the Open-based spec shape (trace files,
// custom generators) with and without a cache.
func TestRunOpenSpec(t *testing.T) {
	open := func() (trace.Source, error) { return testSource(t, "sci-000"), nil }
	cfg := DefaultTLBOnlyConfig(testInstr)
	ctx := context.Background()

	want, err := RunTLBOnly(testSource(t, "sci-000"), NewLRUFactory(t)(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(ctx, RunSpec{Open: open, Policy: NewLRUFactory(t), Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	cache := l2stream.NewCache(0)
	defer cache.Close()
	replayed, err := Run(ctx, RunSpec{Open: open, Name: "sci-000", Policy: NewLRUFactory(t), Config: cfg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if direct != want || replayed != want {
		t.Errorf("Run diverged from RunTLBOnly\n direct:   %+v\n replayed: %+v\n want:     %+v", direct, replayed, want)
	}
}

// closeCounter hands out trace.Limit-wrapped sources that count their
// own Close calls, the way chirpsim wraps a trace file.
type closeCounter struct {
	t      *testing.T
	closes []*int // one per Open call
}

type countedSource struct {
	trace.Source
	closes *int
}

func (s countedSource) Close() error {
	*s.closes++
	return nil
}

func (c *closeCounter) open() (trace.Source, error) {
	n := new(int)
	c.closes = append(c.closes, n)
	return trace.NewLimit(countedSource{Source: testSource(c.t, "spec-000"), closes: n}, testInstr), nil
}

// TestRunClosesOpenedSources: every source RunSpec.Open hands out is
// closed exactly once, by Run and RunMulti, on the direct path and on
// the capture path.
func TestRunClosesOpenedSources(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultTLBOnlyConfig(testInstr)
	lru, srrip := mustFactoryFor(t, "lru"), mustFactoryFor(t, "srrip")
	for _, multi := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			c := &closeCounter{t: t}
			spec := RunSpec{Open: c.open, Name: "spec-000", Config: cfg}
			if cached {
				spec.Cache = l2stream.NewCache(0)
				defer spec.Cache.Close()
			}
			var err error
			if multi {
				_, err = RunMulti(ctx, spec, []PolicyFactory{lru, srrip})
			} else {
				spec.Policy = lru
				_, err = Run(ctx, spec)
			}
			if err != nil {
				t.Fatalf("multi=%v cached=%v: %v", multi, cached, err)
			}
			// The direct path opens once per policy; a capture opens once.
			wantOpens := 1
			if multi && !cached {
				wantOpens = 2
			}
			if len(c.closes) != wantOpens {
				t.Errorf("multi=%v cached=%v: opened %d sources, want %d", multi, cached, len(c.closes), wantOpens)
			}
			for i, n := range c.closes {
				if *n != 1 {
					t.Errorf("multi=%v cached=%v: source %d closed %d times, want 1", multi, cached, i, *n)
				}
			}
		}
	}
}

// NewLRUFactory returns an LRU factory via the registry, failing the
// test on a lookup error.
func NewLRUFactory(t *testing.T) PolicyFactory {
	t.Helper()
	fs, err := Factories([]string{"lru"})
	if err != nil {
		t.Fatal(err)
	}
	return fs[0].New
}

func TestRunSpecValidation(t *testing.T) {
	ctx := context.Background()
	w := workloads.ByName("db-000")
	lru := NewLRUFactory(t)
	cfg := DefaultTLBOnlyConfig(testInstr)
	open := func() (trace.Source, error) { return testSource(t, "db-000"), nil }
	cache := l2stream.NewCache(0)
	defer cache.Close()

	cases := []struct {
		name string
		spec RunSpec
	}{
		{"no policy", RunSpec{Workload: w, Config: cfg}},
		{"no source", RunSpec{Policy: lru, Config: cfg}},
		{"both sources", RunSpec{Workload: w, Open: open, Policy: lru, Config: cfg}},
		{"cache without name", RunSpec{Open: open, Policy: lru, Config: cfg, Cache: cache}},
	}
	for _, tc := range cases {
		if _, err := Run(ctx, tc.spec); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Run(cancelled, RunSpec{Workload: w, Policy: lru, Config: cfg}); err == nil {
		t.Error("cancelled context: no error")
	}
}

// TestCollectReuseSamplesStopsAtMax verifies the cutoff: a tight max
// must be hit exactly (no overshoot) even when the budget fills before
// the warmup boundary.
func TestCollectReuseSamplesStopsAtMax(t *testing.T) {
	const instr = 600_000
	cfg := DefaultTLBOnlyConfig(instr)
	const max = 100
	samples, err := CollectReuseSamples(trace.NewLimit(workloads.ByName("db-000").Source(), instr), cfg, max)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != max {
		t.Fatalf("got %d samples, want exactly %d", len(samples), max)
	}

	// The unbounded run over the same trace yields more — proving the
	// bounded one actually cut off rather than naturally producing max.
	all, err := CollectReuseSamples(trace.NewLimit(workloads.ByName("db-000").Source(), instr), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= max {
		t.Fatalf("unbounded run yielded %d samples; test needs > %d to be meaningful", len(all), max)
	}
	// The bounded prefix must match the unbounded run's first max
	// samples: cutting off early must not change what was sampled.
	for i, s := range samples {
		if s != all[i] {
			t.Fatalf("sample %d differs: bounded %+v vs unbounded %+v", i, s, all[i])
		}
	}
}
