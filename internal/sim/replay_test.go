package sim

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// equivalenceWorkloads spans 3+ categories with distinct behaviours:
// database (batch/zipf mixes), web (pointer chases), and scientific
// (streams/loops) pressure the L1 filters and branch stream
// differently.
var equivalenceWorkloads = []string{"db-003", "web-001", "sci-002", "spec-000"}

func captureFor(t *testing.T, name string, cfg TLBOnlyConfig) *l2stream.Stream {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("workload %s missing", name)
	}
	src := trace.NewLimit(w.Source(), cfg.Instructions)
	stream, err := l2stream.Capture(src, CaptureConfig(cfg), 0)
	if err != nil {
		t.Fatalf("capture %s: %v", name, err)
	}
	t.Cleanup(func() { stream.Close() })
	return stream
}

// directResults runs every registered policy (PolicyNames order)
// directly over workload name: the reference every replay path must
// reproduce bit for bit.
func directResults(t *testing.T, name string, cfg TLBOnlyConfig) []TLBOnlyResult {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("workload %s missing", name)
	}
	names := PolicyNames()
	out := make([]TLBOnlyResult, len(names))
	for i, n := range names {
		pol, err := NewPolicy(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i], err = RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), pol, cfg)
		if err != nil {
			t.Fatalf("%s/%s direct: %v", name, n, err)
		}
	}
	return out
}

// replaySolo replays stream under a single fresh policy: the one-policy
// ReplayMulti call that Run makes for each cell of a sweep.
func replaySolo(t *testing.T, stream *l2stream.Stream, pname string, cfg TLBOnlyConfig) (TLBOnlyResult, error) {
	t.Helper()
	pol, err := NewPolicy(pname)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ReplayMulti(stream, []tlb.Policy{pol}, cfg)
	if err != nil {
		return TLBOnlyResult{}, err
	}
	return rs[0], nil
}

// TestReplayEquivalence: for every registered policy replayed alone,
// on workloads from several categories, with and without prefetching,
// a one-policy ReplayMulti must reproduce RunTLBOnly's TLBOnlyResult
// bit for bit — including the table-accounting fields.
func TestReplayEquivalence(t *testing.T) {
	const instructions = 400000
	for _, pd := range []int{0, 4} {
		cfg := DefaultTLBOnlyConfig(instructions)
		cfg.PrefetchDistance = pd
		for _, wname := range equivalenceWorkloads {
			stream := captureFor(t, wname, cfg)
			want := directResults(t, wname, cfg)
			for i, pname := range PolicyNames() {
				replayed, err := replaySolo(t, stream, pname, cfg)
				if err != nil {
					t.Fatalf("%s/%s replay: %v", wname, pname, err)
				}
				// TLBOnlyResult is all scalars, so == is field-by-field.
				if replayed != want[i] {
					t.Errorf("%s/%s pd=%d: replay diverged\n direct: %+v\n replay: %+v",
						wname, pname, pd, want[i], replayed)
				}
			}
		}
	}
}

// TestPolicyParallelReplay replays one shared stream under every
// registered policy from concurrent one-policy ReplayMulti calls — the
// exact shape a Workers>1 engine sweep of per-cell Run calls produces —
// and checks each result against the direct run of the same pair.
// Under -race this also proves the derived views (access view, prefetch
// schedule, signature sequences) are safe to materialize concurrently.
func TestPolicyParallelReplay(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(300000)
	stream := captureFor(t, "db-003", cfg)

	names := PolicyNames()
	const rounds = 3 // several replays per policy race against each other too
	type cell struct {
		res TLBOnlyResult
		err error
	}
	results := make([]cell, len(names)*rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, name := range names {
			idx := r*len(names) + i
			name := name
			wg.Add(1)
			go func() {
				defer wg.Done()
				pol, err := NewPolicy(name)
				if err != nil {
					results[idx].err = err
					return
				}
				rs, err := ReplayMulti(stream, []tlb.Policy{pol}, cfg)
				if err == nil {
					results[idx].res = rs[0]
				}
				results[idx].err = err
			}()
		}
	}
	wg.Wait()
	want := directResults(t, "db-003", cfg)
	for idx, c := range results {
		i := idx % len(names)
		if c.err != nil {
			t.Errorf("%s parallel replay: %v", names[i], c.err)
			continue
		}
		if c.res != want[i] {
			t.Errorf("%s: parallel replay diverged from RunTLBOnly\n direct: %+v\n replay: %+v",
				names[i], want[i], c.res)
		}
	}
}

func TestReplayRejectsConfigMismatch(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(50000)
	stream := captureFor(t, "spec-000", cfg)
	other := cfg
	other.Instructions = 60000
	pol, _ := NewPolicy("lru")
	if _, err := ReplayMulti(stream, []tlb.Policy{pol}, other); err == nil {
		t.Error("replay must reject a mismatched instruction budget")
	}
	// L2 geometry (beyond the page size) is policy-local: changing it
	// must NOT invalidate the stream.
	geom := cfg
	geom.Hierarchy.L2.Entries = 512
	pol2, _ := NewPolicy("lru")
	if _, err := ReplayMulti(stream, []tlb.Policy{pol2}, geom); err != nil {
		t.Errorf("replay must accept a different L2 geometry: %v", err)
	}
}

func TestReplayUnwarmedMatchesRunError(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(100000)
	w := workloads.ByName("spec-000")
	// A source far shorter than the warmup boundary.
	short := func() trace.Source { return trace.NewLimit(w.Source(), 1000) }
	pol, _ := NewPolicy("lru")
	_, directErr := RunTLBOnly(short(), pol, cfg)
	if directErr == nil {
		t.Fatal("direct run must fail before warmup")
	}
	stream, err := l2stream.Capture(short(), CaptureConfig(cfg), 0)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	defer stream.Close()
	pol2, _ := NewPolicy("lru")
	_, replayErr := ReplayMulti(stream, []tlb.Policy{pol2}, cfg)
	if replayErr == nil {
		t.Fatal("replay must fail before warmup")
	}
	if replayErr.Error() != directErr.Error() {
		t.Errorf("error text diverged:\n direct: %v\n replay: %v", directErr, replayErr)
	}
}

// TestStreamVPNsMatchesCollect: the VPN column of a stream's access
// view, which the OPT oracle reads in place, must equal
// CollectL2Stream's sequence, for an in-memory capture and for a warm
// persistent stream whose view loads from its .l2d sidecar. OPT driven
// by that sequence through ReplayMulti must match the direct run with
// the same oracle.
func TestStreamVPNsMatchesCollect(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(100000)
	w := workloads.ByName("web-001")
	want, err := CollectL2Stream(trace.NewLimit(w.Source(), cfg.Instructions), cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, stream *l2stream.Stream) {
		t.Helper()
		av, err := accessViewFor(stream)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := av.vpn; !slices.Equal(got, want) {
			t.Fatalf("%s: access view VPNs (%d) diverged from CollectL2Stream (%d VPNs)", label, len(got), len(want))
		}
		if stream.Accesses() != uint64(len(want)) {
			t.Errorf("%s: Accesses() = %d, want %d", label, stream.Accesses(), len(want))
		}
	}
	check("in-memory", captureFor(t, "web-001", cfg))

	dir := t.TempDir()
	_, cold := persistentStreamFor(t, dir, "web-001", cfg)
	check("cold persistent", cold)
	if len(sidecarFiles(t, dir)) == 0 {
		t.Fatal("the access view left no sidecar")
	}
	diskHits := obs.Default.Counter("chirp_l2stream_derived_disk_hits_total", "")
	before := diskHits.Value()
	_, warm := persistentStreamFor(t, dir, "web-001", cfg)
	check("warm persistent", warm)
	if diskHits.Value() == before {
		t.Error("warm stream rebuilt the access view instead of loading its sidecar")
	}

	direct, err := RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), policy.NewOPT(policy.BuildOracle(want)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayMulti(warm, []tlb.Policy{policy.NewOPT(policy.BuildOracle(want))}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if replayed[0] != direct {
		t.Errorf("OPT diverged\n direct: %+v\n replay: %+v", direct, replayed[0])
	}
}

// TestRunOPTPaths: runOPT gives one result on all three of its paths
// — replay from a cached stream, the direct fallback when the capture
// is over budget, and the direct path with no cache.
func TestRunOPTPaths(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(100000)
	spec := RunSpec{Workload: workloads.ByName("web-001"), Config: cfg}
	want := optResult(t, spec)
	for _, budget := range []int64{0, 1024} {
		spec.Cache = l2stream.NewCache(budget)
		if got := optResult(t, spec); got != want {
			t.Errorf("budget %d: runOPT diverged from the direct path\n direct: %+v\n got:    %+v", budget, want, got)
		}
	}
}

// optResult runs OPT over spec's workload as a RunPasses job does:
// over the stream spec.Cache yields (none without a cache, or over the
// cap), with a fresh replay memo.
func optResult(t *testing.T, spec RunSpec) TLBOnlyResult {
	t.Helper()
	stream, err := spec.stream(spec.open)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOPT(context.Background(), spec, stream, map[string]TLBOnlyResult{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSuiteUsesSharedStreamCache pins the suite's stream-cache
// contract: within one call each workload is captured once. A second
// call over a persistent cache loads every stream from the capture
// directory and captures nothing. Every cell equals the direct path's.
func TestSuiteUsesSharedStreamCache(t *testing.T) {
	cache, err := l2stream.NewPersistent(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ws := []*workloads.Workload{workloads.ByName("spec-000"), workloads.ByName("db-001")}
	pols, err := Factories([]string{"lru", "srrip"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTLBOnlyConfig(100000)
	misses := obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	diskHits := obs.Default.Counter("chirp_l2stream_cache_disk_hits_total", "")
	misses0 := misses.Value()
	withCache, err := RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg, SuiteOptions{StreamCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if d := misses.Value() - misses0; d != uint64(len(ws)) {
		t.Errorf("suite ran %d captures, want one per workload (%d)", d, len(ws))
	}
	// Zero options mean the direct path: no capture at all, and every
	// cell agrees with the cached run.
	before := misses.Value()
	direct, err := RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg, SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := misses.Value() - before; d != 0 {
		t.Errorf("nil-cache suite ran %d captures, want 0 (direct path)", d)
	}
	if len(withCache) != len(direct) {
		t.Fatalf("result counts differ: %d vs %d", len(withCache), len(direct))
	}
	for i := range direct {
		if withCache[i] != direct[i] {
			t.Errorf("cell %d diverged:\n cached: %+v\n direct: %+v", i, withCache[i], direct[i])
		}
	}
	// A second call over the persistent cache loads every stream from
	// the capture directory instead of capturing it again.
	misses0, diskHits0 := misses.Value(), diskHits.Value()
	again, err := RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg, SuiteOptions{StreamCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if again[i] != direct[i] {
			t.Errorf("rerun cell %d diverged", i)
		}
	}
	if d := misses.Value() - misses0; d != 0 {
		t.Errorf("rerun over the persistent cache ran %d captures, want 0", d)
	}
	if d := diskHits.Value() - diskHits0; d != uint64(len(ws)) {
		t.Errorf("rerun loaded %d streams from disk, want %d", d, len(ws))
	}
}

func TestReplayErrorNamesPair(t *testing.T) {
	// A suite cell that fails during replay must still name its
	// (workload, policy) pair, like the direct path does. A warmup
	// fraction > 1 pushes the boundary past the instruction budget, so
	// every capture ends unwarmed and the replay fails.
	ws := []*workloads.Workload{workloads.ByName("spec-000")}
	cfg := DefaultTLBOnlyConfig(10000)
	cfg.WarmupFraction = 2.0
	pol, err := Factories([]string{"lru"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSuiteTLBOnlyCtx(context.Background(), ws, pol, cfg, SuiteOptions{StreamCache: l2stream.NewCache(0)})
	if err == nil {
		t.Fatal("expected warmup failure")
	}
	if !strings.Contains(err.Error(), "spec-000/lru") {
		t.Errorf("error does not name the failing pair: %v", err)
	}
}
