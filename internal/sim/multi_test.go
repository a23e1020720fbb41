package sim

import (
	"context"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// TestReplayMultiEquivalence is the replay path's correctness gate:
// one ReplayMulti pass over every registered policy at once must
// reproduce each policy's direct RunTLBOnly result bit for bit —
// including the table-accounting fields — across workload categories,
// with and without prefetching. The registered policies include both
// signature-fed walkers (ghrp, chirp) and plain ones.
func TestReplayMultiEquivalence(t *testing.T) {
	const instructions = 400000
	names := PolicyNames()
	for _, pd := range []int{0, 4} {
		cfg := DefaultTLBOnlyConfig(instructions)
		cfg.PrefetchDistance = pd
		for _, wname := range equivalenceWorkloads {
			stream := captureFor(t, wname, cfg)
			fused, err := ReplayMulti(stream, allPolicies(t), cfg)
			if err != nil {
				t.Fatalf("%s pd=%d replay: %v", wname, pd, err)
			}
			if len(fused) != len(names) {
				t.Fatalf("%s pd=%d: replay returned %d results for %d policies", wname, pd, len(fused), len(names))
			}
			want := directResults(t, wname, cfg)
			for i, pname := range names {
				// TLBOnlyResult is all scalars, so == is field-by-field.
				if fused[i] != want[i] {
					t.Errorf("%s/%s pd=%d: replay diverged from RunTLBOnly\n direct: %+v\n replay: %+v",
						wname, pname, pd, want[i], fused[i])
				}
			}
		}
	}
}

// TestRunMultiOverBudget: under a byte budget no capture fits, the
// cache abandons each capture and RunMulti falls back to RunTLBOnly
// per policy over fresh sources. Every registered policy, across
// workload categories, with and without prefetching, must still equal
// the direct reference bit for bit.
func TestRunMultiOverBudget(t *testing.T) {
	names := PolicyNames()
	factories := make([]PolicyFactory, len(names))
	for i, n := range names {
		factories[i] = mustFactoryFor(t, n)
	}
	ctx := context.Background()
	overBudget := obs.Default.Counter("chirp_l2stream_cache_spills_total", "")
	for _, pd := range []int{0, 4} {
		cfg := DefaultTLBOnlyConfig(200000)
		cfg.PrefetchDistance = pd
		cache := l2stream.NewCache(1024)
		before := overBudget.Value()
		for _, wname := range equivalenceWorkloads {
			got, err := RunMulti(ctx, RunSpec{Workload: workloads.ByName(wname), Config: cfg, Cache: cache}, factories)
			if err != nil {
				t.Fatalf("%s pd=%d: %v", wname, pd, err)
			}
			want := directResults(t, wname, cfg)
			for i, n := range names {
				if got[i] != want[i] {
					t.Errorf("%s/%s pd=%d: over-budget RunMulti diverged from RunTLBOnly\n direct: %+v\n got:    %+v",
						wname, n, pd, want[i], got[i])
				}
			}
		}
		if d := overBudget.Value() - before; d != uint64(len(equivalenceWorkloads)) {
			t.Errorf("pd=%d: %d captures abandoned over budget, want %d", pd, d, len(equivalenceWorkloads))
		}
	}
}

// TestRunMultiMatchesRun: the fused entry point, and Run one policy at
// a time, must both reproduce RunTLBOnly on both paths —
// capture/replay (shared cache) and direct (no cache).
func TestRunMultiMatchesRun(t *testing.T) {
	w := workloads.ByName("web-001")
	cfg := DefaultTLBOnlyConfig(150000)
	names := []string{"lru", "ghrp", "srrip", "chirp"}
	factories := make([]PolicyFactory, len(names))
	for i, n := range names {
		factories[i] = mustFactoryFor(t, n)
	}
	ctx := context.Background()

	for _, withCache := range []bool{true, false} {
		var cache *l2stream.Cache
		if withCache {
			cache = l2stream.NewCache(0)
		}
		fused, err := RunMulti(ctx, RunSpec{Workload: w, Config: cfg, Cache: cache}, factories)
		if err != nil {
			t.Fatalf("RunMulti(cache=%v): %v", withCache, err)
		}
		for i, f := range factories {
			want, err := RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), f(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fused[i] != want {
				t.Errorf("cache=%v %s: RunMulti diverged from RunTLBOnly\n direct: %+v\n fused:  %+v",
					withCache, names[i], want, fused[i])
			}
			solo, err := Run(ctx, RunSpec{Workload: w, Policy: f, Config: cfg, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if solo != want {
				t.Errorf("cache=%v %s: Run diverged from RunTLBOnly\n direct: %+v\n run:    %+v",
					withCache, names[i], want, solo)
			}
		}
	}
}

// wrappedCHiRP is a custom branch observer: embedding promotes CHiRP's
// OnBranch (and its signature-feed methods), but the type is not
// *core.CHiRP, so the replay path has no signature sequence for it.
type wrappedCHiRP struct{ *core.CHiRP }

func (wrappedCHiRP) Name() string { return "wrapped-chirp" }

func newWrappedCHiRP() tlb.Policy { return wrappedCHiRP{core.MustNew(core.DefaultConfig())} }

// TestUnfedObserverRoutesToOracle: ReplayMulti must refuse a branch
// observer it cannot feed, naming it, while Run and RunMulti with a
// cache route it (and its siblings) to RunTLBOnly, capturing nothing.
func TestUnfedObserverRoutesToOracle(t *testing.T) {
	const name = "db-000"
	w := workloads.ByName(name)
	cfg := DefaultTLBOnlyConfig(testInstr)
	ctx := context.Background()

	stream := captureFor(t, name, cfg)
	if _, err := ReplayMulti(stream, []tlb.Policy{policy.NewLRU(), newWrappedCHiRP()}, cfg); err == nil {
		t.Fatal("ReplayMulti accepted a branch observer with no signature feed")
	} else if !strings.Contains(err.Error(), "wrapped-chirp") {
		t.Errorf("error does not name the policy: %v", err)
	}

	want, err := RunTLBOnly(testSource(t, name), newWrappedCHiRP(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantLRU, err := RunTLBOnly(testSource(t, name), policy.NewLRU(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := l2stream.NewCache(0)
	misses := obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	misses0 := misses.Value()
	got, err := Run(ctx, RunSpec{Workload: w, Policy: newWrappedCHiRP, Config: cfg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Run diverged from RunTLBOnly\n direct: %+v\n run:    %+v", want, got)
	}
	rs, err := RunMulti(ctx, RunSpec{Workload: w, Config: cfg, Cache: cache},
		[]PolicyFactory{mustFactoryFor(t, "lru"), newWrappedCHiRP})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != wantLRU || rs[1] != want {
		t.Errorf("RunMulti diverged from RunTLBOnly\n direct: %+v, %+v\n multi:  %+v, %+v", wantLRU, want, rs[0], rs[1])
	}
	if d := misses.Value() - misses0; d != 0 {
		t.Errorf("ran %d captures; an unfed observer must not trigger a capture", d)
	}
}

// TestRunMultiValidates: argument errors surface before any work.
func TestRunMultiValidates(t *testing.T) {
	ctx := context.Background()
	if _, err := RunMulti(ctx, RunSpec{Workload: workloads.ByName("spec-000"), Config: DefaultTLBOnlyConfig(1000)}, nil); err == nil {
		t.Error("RunMulti accepted an empty policy list")
	}
	lru, err := Factories([]string{"lru"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMulti(ctx, RunSpec{Config: DefaultTLBOnlyConfig(1000)}, []PolicyFactory{lru[0].New}); err == nil {
		t.Error("RunMulti accepted a spec with no trace source")
	}
}
