package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// TestRunEquivalence is the API-collapse contract: Run with a stream
// cache (capture/replay) and Run without one (direct) must both match
// RunTLBOnly bit for bit, for recency, signature and CHiRP policies
// alike. Each cached Run captures its own stream.
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
	ctx := context.Background()
	misses0 := obsCaptures.Value()

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
	if d := obsCaptures.Value() - misses0; d != uint64(len(factories)) {
		t.Errorf("ran %d captures, want %d (one per cached Run)", d, len(factories))
	}
}

// obsCaptures and obsDiskLoads are the stream cache's capture and
// capture-directory load counters.
var (
	obsCaptures  = obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	obsDiskLoads = obs.Default.Counter("chirp_l2stream_cache_disk_hits_total", "")
)

// TestRunCapturesPerCall: a stream cache keeps no stream between
// calls. Two Runs on an in-memory cache capture twice; on a persistent
// cache the second is a load from the capture directory. Every call
// gets a stream of its own, and the results agree.
func TestRunCapturesPerCall(t *testing.T) {
	w := workloads.ByName("db-000")
	cfg := DefaultTLBOnlyConfig(testInstr)
	ctx := context.Background()
	persistent, err := l2stream.NewPersistent(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                   string
		cache                  *l2stream.Cache
		wantCaptures, wantLoad uint64
	}{
		{"memory", l2stream.NewCache(0), 2, 0},
		{"persistent", persistent, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := RunSpec{Workload: w, Policy: mustFactoryFor(t, "chirp"), Config: cfg, Cache: tc.cache}
			captures0, loads0 := obsCaptures.Value(), obsDiskLoads.Value()
			first, err := Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if first != second {
				t.Errorf("the two runs differ:\n first:  %+v\n second: %+v", first, second)
			}
			if d := obsCaptures.Value() - captures0; d != tc.wantCaptures {
				t.Errorf("two runs captured %d times, want %d", d, tc.wantCaptures)
			}
			if d := obsDiskLoads.Value() - loads0; d != tc.wantLoad {
				t.Errorf("two runs loaded %d streams from disk, want %d", d, tc.wantLoad)
			}
			a, err := StreamFor(tc.cache, w.Name, "", cfg, spec.open)
			if err != nil {
				t.Fatal(err)
			}
			b, err := StreamFor(tc.cache, w.Name, "", cfg, spec.open)
			if err != nil {
				t.Fatal(err)
			}
			if a == b {
				t.Error("two StreamFor calls returned one stream")
			}
		})
	}
}

// TestRunTraceFileWorkload: a trace file written from a generator runs
// through workloads.TraceFile exactly like the generator, with and
// without a cache, and a missing or malformed file fails in TraceFile
// before any run starts.
func TestRunTraceFileWorkload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sci-000.chtr")
	if _, _, err := trace.WriteFile(path, testSource(t, "sci-000")); err != nil {
		t.Fatal(err)
	}
	w, err := workloads.TraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTLBOnlyConfig(testInstr)
	ctx := context.Background()

	want, err := RunTLBOnly(testSource(t, "sci-000"), NewLRUFactory(t)(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		name := "direct"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			spec := RunSpec{Workload: w, Policy: NewLRUFactory(t), Config: cfg}
			if cached {
				spec.Cache = l2stream.NewCache(0)
			}
			got, err := Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("Run diverged from RunTLBOnly\n got:  %+v\n want: %+v", got, want)
			}
		})
	}

	garbage := filepath.Join(dir, "garbage.chtr")
	if err := os.WriteFile(garbage, []byte("not a trace file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{filepath.Join(dir, "missing.chtr"), garbage} {
		name := strings.TrimSuffix(filepath.Base(bad), ".chtr")
		t.Run(name, func(t *testing.T) {
			if _, err := workloads.TraceFile(bad); err == nil {
				t.Errorf("TraceFile(%s): no error", filepath.Base(bad))
			}
		})
	}
}

// closeCounter is a workload whose sources count their own Close
// calls, the way a trace file's sources hold a file handle.
type closeCounter struct {
	closes []*int // one per Source call
}

type countedSource struct {
	trace.Source
	closes *int
}

func (s countedSource) Close() error {
	*s.closes++
	return nil
}

func (c *closeCounter) workload(t *testing.T) *workloads.Workload {
	return workloads.NewSourceWorkload("spec-000", "spec", "", 0, "", func() trace.Source {
		n := new(int)
		c.closes = append(c.closes, n)
		return countedSource{Source: testSource(t, "spec-000"), closes: n}
	}, nil)
}

// TestRunClosesOpenedSources: every source a workload hands out is
// closed exactly once — by Run and RunMulti, on the direct path and on
// the capture path, and by both suite drivers.
func TestRunClosesOpenedSources(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultTLBOnlyConfig(testInstr)
	lru, srrip := mustFactoryFor(t, "lru"), mustFactoryFor(t, "srrip")
	pols := []NamedFactory{{Name: "lru", New: lru}, {Name: "srrip", New: srrip}}
	checkCloses := func(t *testing.T, c *closeCounter, wantOpens int) {
		t.Helper()
		if len(c.closes) != wantOpens {
			t.Errorf("opened %d sources, want %d", len(c.closes), wantOpens)
		}
		for i, n := range c.closes {
			if *n != 1 {
				t.Errorf("source %d closed %d times, want 1", i, *n)
			}
		}
	}
	for _, multi := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("multi=%v,cached=%v", multi, cached), func(t *testing.T) {
				c := &closeCounter{}
				spec := RunSpec{Workload: c.workload(t), Config: cfg}
				if cached {
					spec.Cache = l2stream.NewCache(0)
				}
				var err error
				if multi {
					_, err = RunMulti(ctx, spec, []PolicyFactory{lru, srrip})
				} else {
					spec.Policy = lru
					_, err = Run(ctx, spec)
				}
				if err != nil {
					t.Fatal(err)
				}
				// The direct path opens once per policy; a capture opens once.
				wantOpens := 1
				if multi && !cached {
					wantOpens = 2
				}
				checkCloses(t, c, wantOpens)
			})
		}
	}

	t.Run("tlb-only suite", func(t *testing.T) {
		c := &closeCounter{}
		if _, err := RunSuiteTLBOnlyCtx(ctx, []*workloads.Workload{c.workload(t)}, pols, cfg, SuiteOptions{}); err != nil {
			t.Fatal(err)
		}
		// Without a stream cache each policy runs the direct reference.
		checkCloses(t, c, 2)
	})
	// Without a cache the timing front end runs alone and each policy
	// runs the direct reference; with one, the capture reads the trace
	// through the front end, so the run opens one source.
	for name, cache := range map[string]*l2stream.Cache{"timing suite": nil, "timing suite,cached": l2stream.NewCache(0)} {
		t.Run(name, func(t *testing.T) {
			c := &closeCounter{}
			if _, err := RunSuiteTimingCtx(ctx, []*workloads.Workload{c.workload(t)}, pols, cfg, 150, SuiteOptions{StreamCache: cache}); err != nil {
				t.Fatal(err)
			}
			wantOpens := 3
			if cache != nil {
				wantOpens = 1
			}
			checkCloses(t, c, wantOpens)
		})
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

	cases := []struct {
		name string
		spec RunSpec
	}{
		{"no policy", RunSpec{Workload: w, Config: cfg}},
		{"no source", RunSpec{Policy: lru, Config: cfg}},
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

// TestZeroBudgetRejected: every entry point bounds an unbounded
// workload generator at the configured instruction count, so a zero
// budget would measure nothing; each rejects it before any work runs.
func TestZeroBudgetRejected(t *testing.T) {
	ctx := context.Background()
	ws := workloads.SuiteN(2)
	lru := NewLRUFactory(t)
	pols := []NamedFactory{{Name: "lru", New: lru}}
	spec := RunSpec{Workload: ws[0], Policy: lru, Config: DefaultTLBOnlyConfig(0)}
	for name, run := range map[string]func() error{
		"Run": func() error { _, err := Run(ctx, spec); return err },
		"RunMulti": func() error {
			_, err := RunMulti(ctx, spec, []PolicyFactory{lru})
			return err
		},
		"RunPassesOPT": func() error {
			_, err := RunPasses(ctx, ws, []Pass{{Scope: "opt", Config: DefaultTLBOnlyConfig(0), OPT: true}}, SuiteOptions{})
			return err
		},
		"RunSuiteTLBOnlyCtx": func() error {
			_, err := RunSuiteTLBOnlyCtx(ctx, ws, pols, DefaultTLBOnlyConfig(0), SuiteOptions{})
			return err
		},
		"RunSuiteTimingCtx": func() error {
			_, err := RunSuiteTimingCtx(ctx, ws, pols, DefaultTLBOnlyConfig(0), 150, SuiteOptions{})
			return err
		},
		"RunConsolidated": func() error {
			_, err := RunConsolidated(ws, lru(), DefaultConsolidatedConfig(0))
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			if err := run(); !errors.Is(err, errZeroBudget) {
				t.Errorf("zero budget: error %v, want %v", err, errZeroBudget)
			}
		})
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
