package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

func TestParallelMatchesSerial(t *testing.T) {
	ws := workloads.SuiteN(4)
	pols, err := Factories([]string{"lru", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTLBOnlyConfig(150_000)
	serial, err := RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg,
		SuiteOptions{Workers: 1, StreamCache: l2stream.NewCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg,
		SuiteOptions{Workers: 4, StreamCache: l2stream.NewCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].MPKI != parallel[i].MPKI || serial[i].L2Misses != parallel[i].L2Misses {
			t.Fatalf("parallel result %d diverged: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}

func TestRunSuitePropagatesBadPolicy(t *testing.T) {
	if _, err := Factories([]string{"definitely-not-a-policy"}); err == nil {
		t.Fatal("Factories accepted an unknown policy")
	}
}

// panicPolicy explodes on its first access — the stand-in for a buggy
// replacement policy inside a long suite sweep.
type panicPolicy struct{}

func (panicPolicy) Name() string                      { return "panic-pol" }
func (panicPolicy) Attach(int, int)                   {}
func (panicPolicy) OnAccess(*tlb.Access)              { panic("policy bug") }
func (panicPolicy) OnHit(uint32, int, *tlb.Access)    {}
func (panicPolicy) Victim(uint32, *tlb.Access) int    { return 0 }
func (panicPolicy) OnInsert(uint32, int, *tlb.Access) {}

// suiteModes are the TLB-only suite's two execution modes, which share
// one job shape: capture/replay through a stream cache (fresh per
// call) and, with a nil cache, direct RunTLBOnly.
var suiteModes = []struct {
	name string
	opts func() SuiteOptions
}{
	{"replay", func() SuiteOptions { return SuiteOptions{StreamCache: l2stream.NewCache(0)} }},
	{"direct", func() SuiteOptions { return SuiteOptions{} }},
}

// TestSuitePanicSurfacesJobIdentity is the regression test for the
// old fanOut, where a panicking policy tore down the whole process:
// the panic must convert into an error naming the (workload, policy)
// pair, and results completed before it must survive — in both modes.
func TestSuitePanicSurfacesJobIdentity(t *testing.T) {
	ws := workloads.SuiteN(2)
	pols := []NamedFactory{
		{Name: "lru", New: mustFactoryFor(t, "lru")},
		{Name: "panic-pol", New: func() tlb.Policy { return panicPolicy{} }},
	}
	cfg := DefaultTLBOnlyConfig(100_000)
	for _, mode := range suiteModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := mode.opts()
			opts.Workers = 1
			results, err := RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg, opts)
			if err == nil {
				t.Fatal("panicking policy produced no error")
			}
			var je *engine.JobError
			if !errors.As(err, &je) {
				t.Fatalf("error %v carries no job identity", err)
			}
			if je.Key.Workload != ws[0].Name || je.Key.Policy != "panic-pol" {
				t.Errorf("blamed %v, want %s/panic-pol", je.Key, ws[0].Name)
			}
			var pe *engine.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v does not expose the panic", err)
			}
			if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "panic-pol") {
				t.Errorf("error text does not name the panic and policy: %v", err)
			}
			// The lru run beside the panic kept its result.
			if results[0].Workload != ws[0].Name || results[0].L2Accesses == 0 {
				t.Errorf("pre-panic result lost: %+v", results[0])
			}
		})
	}
}

// cancelAfter cancels a context once n jobs have finished — the test
// harness's stand-in for `kill` mid-sweep.
type cancelAfter struct {
	engine.Counters
	n      int64
	cancel context.CancelFunc
}

func (s *cancelAfter) JobDone(k engine.Key, elapsed time.Duration, err error) {
	s.Counters.JobDone(k, elapsed, err)
	if s.Done.Load() >= s.n {
		s.cancel()
	}
}

// TestSuiteCheckpointResumeByteIdentical kills a suite run after two
// jobs, resumes it from the checkpoint, and requires the resumed
// results to be byte-identical (as JSON) to an uninterrupted run's —
// in both modes.
func TestSuiteCheckpointResumeByteIdentical(t *testing.T) {
	ws := workloads.SuiteN(3)
	pols, err := Factories([]string{"lru", "srrip"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTLBOnlyConfig(120_000)
	for _, mode := range suiteModes {
		t.Run(mode.name, func(t *testing.T) {
			run := func(ctx context.Context, workers int, sink engine.Sink, ck *engine.Checkpoint) ([]SuiteResult, error) {
				opts := mode.opts()
				opts.Workers, opts.Sink, opts.Checkpoint = workers, sink, ck
				return RunSuiteTLBOnlyCtx(ctx, ws, pols, cfg, opts)
			}
			clean, err := run(context.Background(), 1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: cancelled after two completed jobs.
			path := t.TempDir() + "/suite.ckpt"
			ck, err := engine.Open(path, "suite-test")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err = run(ctx, 1, &cancelAfter{n: 2, cancel: cancel}, ck)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run error = %v, want context.Canceled", err)
			}
			// Job granularity is fused: one job per workload, covering
			// every policy, so the checkpoint holds at most len(ws) rows.
			if ck.Len() < 2 || ck.Len() >= len(ws) {
				t.Fatalf("checkpoint holds %d rows, want a strict mid-run subset of %d", ck.Len(), len(ws))
			}
			ck.Close()

			// Resume against the same file; previously completed jobs
			// must be restored, not re-run, and the output must match
			// exactly.
			ck2, err := engine.Open(path, "suite-test")
			if err != nil {
				t.Fatal(err)
			}
			defer ck2.Close()
			var c engine.Counters
			resumed, err := run(context.Background(), 2, &c, ck2)
			if err != nil {
				t.Fatal(err)
			}
			if c.Resumed.Load() < 2 {
				t.Errorf("resume restored %d jobs from checkpoint, want >= 2", c.Resumed.Load())
			}
			if int(c.Resumed.Load()+c.Done.Load()) != len(ws) {
				t.Errorf("resume completed %d jobs, want %d", c.Resumed.Load()+c.Done.Load(), len(ws))
			}

			cleanJSON, err := json.Marshal(clean)
			if err != nil {
				t.Fatal(err)
			}
			resumedJSON, err := json.Marshal(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cleanJSON, resumedJSON) {
				t.Errorf("resumed output diverged from uninterrupted run:\nclean:   %s\nresumed: %s", cleanJSON, resumedJSON)
			}
		})
	}
}

// timingCells is the per-cell reference for the timing suite: one
// solo machine per (workload, policy), in workload-major order.
func timingCells(t *testing.T, ws []*workloads.Workload, pols []NamedFactory, cfg pipeline.Config) []TimingResult {
	t.Helper()
	var out []TimingResult
	for _, w := range ws {
		for _, p := range pols {
			m, err := pipeline.New(cfg, p.New(), func() tlb.Policy { return policy.NewLRU() })
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(trace.NewLimit(w.Source(), cfg.Instructions))
			if err != nil {
				t.Fatal(err)
			}
			res.Policy = p.Name
			out = append(out, TimingResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), Result: res})
		}
	}
	return out
}

// TestRunSuiteTimingFused pins the fused timing suite (one front-end
// pass per workload) to the per-cell reference: same rows in the same
// workload-major order, per-cell blame for a panicking policy with its
// siblings' rows intact, byte-identical rows after a checkpoint
// resume, and a radix-walker suite limited to one policy.
func TestRunSuiteTimingFused(t *testing.T) {
	ws := workloads.SuiteN(3)
	pols, err := Factories([]string{"lru", "srrip", "ghrp", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig(testInstr, 150)

	t.Run("matches per-cell reference", func(t *testing.T) {
		got, err := RunSuiteTimingCtx(context.Background(), ws, pols, cfg, SuiteOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if want := timingCells(t, ws, pols, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("fused suite diverged from per-cell reference:\ngot:  %+v\nwant: %+v", got, want)
		}
	})

	t.Run("radix suite takes one policy", func(t *testing.T) {
		radix := cfg
		radix.UseRadixWalker = true
		radix.PSC.EntriesPerLevel = 32
		if _, err := RunSuiteTimingCtx(context.Background(), ws[:2], pols[:2], radix, SuiteOptions{Workers: 1}); err == nil {
			t.Error("a two-policy radix suite ran")
		}
		got, err := RunSuiteTimingCtx(context.Background(), ws[:2], pols[3:], radix, SuiteOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := timingCells(t, ws[:2], pols[3:], radix); !reflect.DeepEqual(got, want) {
			t.Errorf("radix suite diverged from per-cell reference:\ngot:  %+v\nwant: %+v", got, want)
		}
	})

	t.Run("panic blames its cell", func(t *testing.T) {
		withPanic := []NamedFactory{pols[0], {Name: "panic-pol", New: func() tlb.Policy { return panicPolicy{} }}, pols[3]}
		got, err := RunSuiteTimingCtx(context.Background(), ws[:1], withPanic, cfg, SuiteOptions{Workers: 1})
		var je *engine.JobError
		if !errors.As(err, &je) {
			t.Fatalf("error %v carries no job identity", err)
		}
		if je.Key.Workload != ws[0].Name || je.Key.Policy != "panic-pol" {
			t.Errorf("blamed %v, want %s/panic-pol", je.Key, ws[0].Name)
		}
		var pe *engine.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("error %v does not expose the panic", err)
		}
		want := timingCells(t, ws[:1], []NamedFactory{pols[0], pols[3]}, cfg)
		if len(got) != 3 || !reflect.DeepEqual(got[0], want[0]) || !reflect.DeepEqual(got[2], want[1]) {
			t.Errorf("sibling rows differ from their solo runs:\ngot:  %+v\nwant: %+v", got, want)
		}
		if got[1] != (TimingResult{}) {
			t.Errorf("panicking cell left a row: %+v", got[1])
		}
	})

	t.Run("checkpoint resume", func(t *testing.T) {
		clean, err := RunSuiteTimingCtx(context.Background(), ws, pols, cfg, SuiteOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/timing.ckpt"
		ck, err := engine.Open(path, "timing-test")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err = RunSuiteTimingCtx(ctx, ws, pols, cfg, SuiteOptions{Workers: 1, Sink: &cancelAfter{n: 1, cancel: cancel}, Checkpoint: ck})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run error = %v, want context.Canceled", err)
		}
		// One job per workload: the checkpoint holds whole workloads.
		if ck.Len() < 1 || ck.Len() >= len(ws) {
			t.Fatalf("checkpoint holds %d rows, want a strict mid-run subset of %d", ck.Len(), len(ws))
		}
		ck.Close()

		ck2, err := engine.Open(path, "timing-test")
		if err != nil {
			t.Fatal(err)
		}
		defer ck2.Close()
		var c engine.Counters
		resumed, err := RunSuiteTimingCtx(context.Background(), ws, pols, cfg, SuiteOptions{Workers: 2, Sink: &c, Checkpoint: ck2})
		if err != nil {
			t.Fatal(err)
		}
		if c.Resumed.Load() < 1 || int(c.Resumed.Load()+c.Done.Load()) != len(ws) {
			t.Errorf("resume restored %d and ran %d jobs, want >= 1 restored of %d", c.Resumed.Load(), c.Done.Load(), len(ws))
		}
		cleanJSON, err := json.Marshal(clean)
		if err != nil {
			t.Fatal(err)
		}
		resumedJSON, err := json.Marshal(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cleanJSON, resumedJSON) {
			t.Errorf("resumed output diverged from uninterrupted run:\nclean:   %s\nresumed: %s", cleanJSON, resumedJSON)
		}
	})
}

func mustFactoryFor(t *testing.T, name string) PolicyFactory {
	t.Helper()
	fs, err := Factories([]string{name})
	if err != nil {
		t.Fatal(err)
	}
	return fs[0].New
}

// TestTraceFileSuiteMatchesGenerator: a recorded trace is a workload
// like any other, so both suite drivers over workloads.TraceFile of a
// written db-003 produce the generator workload's rows. Only the labels
// differ: a trace file is named by its path, and it has no program
// model to take a category or profile from.
func TestTraceFileSuiteMatchesGenerator(t *testing.T) {
	gen := workloads.ByName("db-003")
	path := t.TempDir() + "/db-003.chtr"
	if _, _, err := trace.WriteFile(path, trace.NewLimit(gen.Source(), testInstr)); err != nil {
		t.Fatal(err)
	}
	file, err := workloads.TraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pols, err := Factories([]string{"lru", "srrip", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("tlb-only,cached=%v", cached), func(t *testing.T) {
			var cache *l2stream.Cache
			if cached {
				cache = l2stream.NewCache(0)
			}
			suite := func(w *workloads.Workload) []SuiteResult {
				rs, err := RunSuiteTLBOnlyCtx(ctx, []*workloads.Workload{w}, pols, DefaultTLBOnlyConfig(testInstr), SuiteOptions{StreamCache: cache})
				if err != nil {
					t.Fatal(err)
				}
				for i := range rs {
					rs[i].Workload, rs[i].Category, rs[i].Profile = "", "", ""
				}
				return rs
			}
			if got, want := suite(file), suite(gen); !reflect.DeepEqual(got, want) {
				t.Errorf("TLB-only rows over the trace file diverged:\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}

	t.Run("timing", func(t *testing.T) {
		timing := func(w *workloads.Workload) []TimingResult {
			rs, err := RunSuiteTimingCtx(ctx, []*workloads.Workload{w}, pols, pipeline.DefaultConfig(testInstr, 150), SuiteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range rs {
				rs[i].Workload, rs[i].Category, rs[i].Profile = "", "", ""
			}
			return rs
		}
		if got, want := timing(file), timing(gen); !reflect.DeepEqual(got, want) {
			t.Errorf("timing rows over the trace file diverged:\ngot:  %+v\nwant: %+v", got, want)
		}
	})
}
