package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// namedFactories resolves registered policy names.
func namedFactories(t *testing.T, names ...string) []NamedFactory {
	t.Helper()
	fs, err := Factories(names)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// testPasses is a three-pass plan sharing one capture configuration:
// the paper's setup under LRU, SRRIP and CHiRP; a stride prefetcher
// under LRU and CHiRP plus the OPT oracle; and a 4-way L2 under LRU
// and GHRP.
func testPasses(t *testing.T) []Pass {
	cfg := DefaultTLBOnlyConfig(testInstr)
	pf := cfg
	pf.PrefetchDistance = 4
	ways := cfg
	ways.Hierarchy.L2.Ways = 4
	return []Pass{
		{Scope: "base", Config: cfg, Policies: namedFactories(t, "lru", "srrip", "chirp")},
		{Scope: "pf", Config: pf, Policies: namedFactories(t, "lru", "chirp"), OPT: true},
		{Scope: "ways", Config: ways, Policies: namedFactories(t, "lru", "ghrp")},
	}
}

// TestRunPassesMatchesPerPassSuites: a multi-pass call yields, per
// pass, what one suite call per pass yields, with the OPT row after
// each workload's policy rows equal to the direct path's OPT result.
func TestRunPassesMatchesPerPassSuites(t *testing.T) {
	ctx := context.Background()
	ws := workloads.SuiteN(2)
	passes := testPasses(t)
	got, err := RunPasses(ctx, ws, passes, SuiteOptions{StreamCache: l2stream.NewCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range passes {
		want, err := RunSuiteTLBOnlyCtx(ctx, ws, p.Policies, p.Config, SuiteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if p.OPT {
			var withOPT []SuiteResult
			for k, w := range ws {
				res := optResult(t, RunSpec{Workload: w, Config: p.Config})
				res.Policy = "opt"
				n := len(p.Policies)
				withOPT = append(withOPT, want[k*n:(k+1)*n]...)
				withOPT = append(withOPT, SuiteResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), TLBOnlyResult: res})
			}
			want = withOPT
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("pass %s diverged from its own suite call:\n got:  %+v\n want: %+v", p.Scope, got[i], want)
		}
	}
}

// TestRunPassesUnderBudgetPressure runs a multi-pass call through a
// cache whose per-capture cap admits the suite's smallest stream and
// not its largest. Every workload is captured once, the ones over the
// cap take the direct path, and the rows are bit-identical to the
// direct path's.
func TestRunPassesUnderBudgetPressure(t *testing.T) {
	ctx := context.Background()
	ws := workloads.SuiteN(3)
	passes := testPasses(t)
	direct, err := RunPasses(ctx, ws, passes, SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	probe := l2stream.NewCache(0)
	sizes := make([]int64, len(ws))
	for i, w := range ws {
		s, err := StreamFor(probe, w.Name, w.SpecHash, passes[0].Config, func() (trace.Source, error) {
			return trace.NewLimit(w.Source(), testInstr), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = s.FootprintBytes()
	}
	budget := slices.Min(sizes)
	over := 0
	for _, n := range sizes {
		if n > budget {
			over++
		}
	}
	if over == 0 {
		t.Fatalf("test premise broken: every stream fits the %d-byte cap (%v)", budget, sizes)
	}

	cache := l2stream.NewCache(budget)
	misses := obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	spills := obs.Default.Counter("chirp_l2stream_cache_spills_total", "")
	misses0, spills0 := misses.Value(), spills.Value()
	got, err := RunPasses(ctx, ws, passes, SuiteOptions{Workers: 2, StreamCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if d := misses.Value() - misses0; d != uint64(len(ws)) {
		t.Errorf("ran %d captures, want one per workload (%d)", d, len(ws))
	}
	if d := spills.Value() - spills0; d != uint64(over) {
		t.Errorf("%d captures went over the cap, want %d (streams %v, cap %d)", d, over, sizes, budget)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Errorf("rows under budget pressure diverged from the direct path:\n got:    %+v\n direct: %+v", got, direct)
	}
}

// TestRunPassesPanicBlamesCell: a policy that panics in one pass is
// blamed on its (scope, workload, policy) cell, and every other cell
// of the workload, in every pass, still delivers its row.
func TestRunPassesPanicBlamesCell(t *testing.T) {
	ws := workloads.SuiteN(1)
	clean := testPasses(t)
	withPanic := testPasses(t)
	pf := withPanic[1].Policies
	withPanic[1].Policies = []NamedFactory{pf[0], {Name: "panic-pol", New: func() tlb.Policy { return panicPolicy{} }}, pf[1]}
	want, err := RunPasses(context.Background(), ws, clean, SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range suiteModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := mode.opts()
			opts.Workers = 1
			got, err := RunPasses(context.Background(), ws, withPanic, opts)
			var je *engine.JobError
			if !errors.As(err, &je) {
				t.Fatalf("error %v carries no job identity", err)
			}
			if want := (engine.Key{Scope: "pf", Workload: ws[0].Name, Policy: "panic-pol"}); je.Key != want {
				t.Errorf("blamed %v, want %v", je.Key, want)
			}
			var pe *engine.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v does not expose the panic", err)
			}
			if got[1][1] != (SuiteResult{}) {
				t.Errorf("panicking cell left a row: %+v", got[1][1])
			}
			got[1] = append(got[1][:1], got[1][2:]...)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("healthy cells diverged from a clean run:\n got:  %+v\n want: %+v", got, want)
			}
		})
	}
}

// TestRunPassesCheckpointResume cancels a multi-pass run mid-plan and
// resumes it: the checkpoint holds one row per completed workload, not
// one per pass, and the resumed rows are byte-identical to an
// uninterrupted run's — in both modes.
func TestRunPassesCheckpointResume(t *testing.T) {
	ws := workloads.SuiteN(4)
	passes := testPasses(t)
	for _, mode := range suiteModes {
		t.Run(mode.name, func(t *testing.T) {
			run := func(ctx context.Context, sink engine.Sink, ck *engine.Checkpoint) ([][]SuiteResult, error) {
				opts := mode.opts()
				opts.Workers, opts.Sink, opts.Checkpoint = 1, sink, ck
				return RunPasses(ctx, ws, passes, opts)
			}
			clean, err := run(context.Background(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}

			path := t.TempDir() + "/passes.ckpt"
			ck, err := engine.Open(path, "passes-test")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &cancelAfter{n: 2, cancel: cancel}
			if _, err := run(ctx, sink, ck); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run error = %v, want context.Canceled", err)
			}
			if done := int(sink.Done.Load()); ck.Len() != done || done < 2 || done >= len(ws) {
				t.Fatalf("checkpoint holds %d rows after %d finished workloads, want one per workload, a strict mid-run subset of %d", ck.Len(), done, len(ws))
			}
			ck.Close()

			ck2, err := engine.Open(path, "passes-test")
			if err != nil {
				t.Fatal(err)
			}
			defer ck2.Close()
			var c engine.Counters
			resumed, err := run(context.Background(), &c, ck2)
			if err != nil {
				t.Fatal(err)
			}
			if c.Resumed.Load() < 2 || int(c.Resumed.Load()+c.Done.Load()) != len(ws) {
				t.Errorf("resume restored %d and ran %d jobs, want >= 2 restored of %d", c.Resumed.Load(), c.Done.Load(), len(ws))
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
				t.Errorf("resumed rows diverged from an uninterrupted run:\nclean:   %s\nresumed: %s", cleanJSON, resumedJSON)
			}
		})
	}
}

// TestOldCheckpointRowsRerun: a checkpoint written when a suite call
// ran one job per workload under the "+"-joined policy list restores
// nothing into the workload-major driver; every workload reruns and
// the rows are the clean run's.
func TestOldCheckpointRowsRerun(t *testing.T) {
	ctx := context.Background()
	ws := workloads.SuiteN(2)
	pols := namedFactories(t, "lru", "srrip")
	cfg := DefaultTLBOnlyConfig(testInstr)
	clean, err := RunSuiteTLBOnlyCtx(ctx, ws, pols, cfg, SuiteOptions{Scope: "fig"})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/old.ckpt"
	ck, err := engine.Open(path, "old-format")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		stale := []SuiteResult{{Workload: w.Name}, {Workload: w.Name}}
		if err := ck.Put(engine.Key{Scope: "fig", Workload: w.Name, Policy: "lru+srrip"}, stale); err != nil {
			t.Fatal(err)
		}
	}
	var c engine.Counters
	got, err := RunSuiteTLBOnlyCtx(ctx, ws, pols, cfg, SuiteOptions{Scope: "fig", Sink: &c, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if c.Resumed.Load() != 0 || int(c.Done.Load()) != len(ws) {
		t.Errorf("restored %d and ran %d jobs, want 0 restored and %d run", c.Resumed.Load(), c.Done.Load(), len(ws))
	}
	if !reflect.DeepEqual(got, clean) {
		t.Errorf("rows after an old checkpoint diverged:\n got:   %+v\n clean: %+v", got, clean)
	}
}

// TestRunPassesRejectsBadPlans: plans no job could run are refused
// before any job starts.
func TestRunPassesRejectsBadPlans(t *testing.T) {
	ws := workloads.SuiteN(1)
	cfg := DefaultTLBOnlyConfig(testInstr)
	other := cfg
	other.Instructions *= 2
	prefetch := cfg
	prefetch.PrefetchDistance = 2
	lru := namedFactories(t, "lru")
	for name, c := range map[string]struct {
		passes []Pass
		want   string
	}{
		"no passes":       {nil, "at least one pass"},
		"zero budget":     {[]Pass{{Config: DefaultTLBOnlyConfig(0), Policies: lru}}, "zero instruction budget"},
		"empty pass":      {[]Pass{{Scope: "empty", Config: cfg}}, `pass "empty" measures nothing`},
		"mixed captures":  {[]Pass{{Config: cfg, Policies: lru}, {Scope: "long", Config: other, Policies: lru}}, `pass "long" captures under`},
		"timing prefetch": {[]Pass{{Scope: "pf", Config: prefetch, Policies: lru, Timing: true}}, `timing pass "pf" cannot prefetch`},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := RunPasses(context.Background(), ws, c.passes, SuiteOptions{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestTimingCheckpointIdentity: a timing pass's checkpoint key differs
// from a TLB-only pass's of the same scope, policies and configuration
// (chirpsim uses the scope "chirpsim" in both modes), so a TLB-only row
// reruns instead of restoring into it, as does a timing row of the
// parent format, keyed by the "+"-joined policy list. A timing pass's
// own rows restore, front end included, into the rows of a clean run.
func TestTimingCheckpointIdentity(t *testing.T) {
	ctx := context.Background()
	ws := workloads.SuiteN(2)
	pols := namedFactories(t, "lru", "srrip")
	cfg := DefaultTLBOnlyConfig(testInstr)
	clean, err := RunSuiteTimingCtx(ctx, ws, pols, cfg, 150, SuiteOptions{Scope: "chirpsim"})
	if err != nil {
		t.Fatal(err)
	}
	resume := func(t *testing.T, ck *engine.Checkpoint, restored int) {
		t.Helper()
		var c engine.Counters
		got, err := RunSuiteTimingCtx(ctx, ws, pols, cfg, 150, SuiteOptions{Scope: "chirpsim", Sink: &c, Checkpoint: ck})
		if err != nil {
			t.Fatal(err)
		}
		if int(c.Resumed.Load()) != restored || int(c.Done.Load()) != len(ws)-restored {
			t.Errorf("restored %d and ran %d jobs, want %d restored", c.Resumed.Load(), c.Done.Load(), restored)
		}
		if !reflect.DeepEqual(got, clean) {
			t.Errorf("rows diverged from the clean run:\n got:   %+v\n clean: %+v", got, clean)
		}
	}

	t.Run("tlb-only rows rerun", func(t *testing.T) {
		ck, err := engine.Open(t.TempDir()+"/tlb.ckpt", "chirpsim")
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		if _, err := RunSuiteTLBOnlyCtx(ctx, ws, pols, cfg, SuiteOptions{Scope: "chirpsim", Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		if ck.Len() != len(ws) {
			t.Fatalf("checkpoint holds %d rows, want %d", ck.Len(), len(ws))
		}
		resume(t, ck, 0)
		// The timing run checkpointed its own rows, which restore.
		resume(t, ck, len(ws))
	})

	t.Run("parent-format timing rows rerun", func(t *testing.T) {
		ck, err := engine.Open(t.TempDir()+"/old.ckpt", "chirpsim")
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		for _, w := range ws {
			stale := []TimingResult{{Workload: w.Name}, {Workload: w.Name}}
			if err := ck.Put(engine.Key{Scope: "chirpsim", Workload: w.Name, Policy: "lru+srrip"}, stale); err != nil {
				t.Fatal(err)
			}
		}
		resume(t, ck, 0)
	})
}
