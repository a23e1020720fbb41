package sim

import (
	"context"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
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

// TestReplayMultiSpilledEquivalence: the spilled fallback (per-policy
// direct runs over the retained record file) must match direct runs
// over the generator.
func TestReplayMultiSpilledEquivalence(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(200000)
	cfg.PrefetchDistance = 2
	w := workloads.ByName("db-003")
	src := trace.NewLimit(w.Source(), cfg.Instructions)
	stream, err := l2stream.Capture(src, CaptureConfig(cfg),
		l2stream.CaptureOptions{MaxBytes: 1024, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	defer stream.Close()
	if !stream.Spilled() {
		t.Fatal("1 KiB budget must force a spill")
	}
	names := []string{"lru", "chirp", "ghrp"}
	pols := make([]tlb.Policy, len(names))
	for i, n := range names {
		pols[i], _ = NewPolicy(n)
	}
	fused, err := ReplayMulti(stream, pols, cfg)
	if err != nil {
		t.Fatalf("spilled replay: %v", err)
	}
	for i, n := range names {
		pol, _ := NewPolicy(n)
		want, err := RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), pol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fused[i] != want {
			t.Errorf("%s: spilled replay diverged from RunTLBOnly\n direct: %+v\n replay: %+v", n, want, fused[i])
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
			cache = l2stream.NewCache(0, t.TempDir())
			defer cache.Close()
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
	defer stream.Close()
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
	cache := l2stream.NewCache(0, t.TempDir())
	defer cache.Close()
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
	if cache.Len() != 0 {
		t.Errorf("cache holds %d streams; an unfed observer must not trigger a capture", cache.Len())
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
