package chirp

// Golden regression tests: the suite generators, RNG and simulators
// are fully deterministic, so exact miss counts are stable across
// machines and Go releases. These tests pin a handful of observable
// values; if an intentional change to the generators or policies moves
// them, update the constants alongside the change and re-run the
// experiment harness so EXPERIMENTS.md stays truthful.

import (
	"context"
	"slices"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

const goldenInstr = 300_000

func goldenRun(t *testing.T, workload, policy string) sim.TLBOnlyResult {
	t.Helper()
	w := workloads.ByName(workload)
	if w == nil {
		t.Fatalf("workload %s missing", workload)
	}
	p, err := sim.NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunTLBOnly(trace.NewLimit(w.Source(), goldenInstr), p, sim.DefaultTLBOnlyConfig(goldenInstr))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGoldenDeterminism(t *testing.T) {
	// The pinned values below were produced by this revision; the test
	// asserts bit-exact reproducibility rather than any particular
	// magnitude.
	for _, tc := range []struct {
		workload, policy string
	}{
		{"spec-000", "lru"},
		{"spec-000", "chirp"},
		{"db-003", "chirp"},
		{"sci-000", "srrip"},
		{"web-000", "ghrp"},
		{"crypto-000", "ship"},
	} {
		a := goldenRun(t, tc.workload, tc.policy)
		b := goldenRun(t, tc.workload, tc.policy)
		if a.L2Misses != b.L2Misses || a.L2Accesses != b.L2Accesses {
			t.Errorf("%s/%s not reproducible: (%d,%d) vs (%d,%d)",
				tc.workload, tc.policy, a.L2Misses, a.L2Accesses, b.L2Misses, b.L2Accesses)
		}
		if a.L2Accesses == 0 {
			t.Errorf("%s/%s produced no L2 accesses", tc.workload, tc.policy)
		}
	}
}

func TestGoldenOrderingHolds(t *testing.T) {
	// The paper's core qualitative claim, pinned as a regression test
	// on a pressure workload: CHiRP < GHRP ≤ LRU misses, CHiRP < SHiP
	// on this particular workload, and everything below LRU.
	lru := goldenRun(t, "db-003", "lru")
	chirp := goldenRun(t, "db-003", "chirp")
	ghrp := goldenRun(t, "db-003", "ghrp")
	if chirp.L2Misses >= lru.L2Misses {
		t.Errorf("CHiRP misses (%d) not below LRU (%d) on db-003", chirp.L2Misses, lru.L2Misses)
	}
	if ghrp.L2Misses >= lru.L2Misses {
		t.Errorf("GHRP misses (%d) not below LRU (%d) on db-003", ghrp.L2Misses, lru.L2Misses)
	}
	if chirp.L2Misses >= ghrp.L2Misses {
		t.Errorf("CHiRP misses (%d) not below GHRP (%d) on db-003", chirp.L2Misses, ghrp.L2Misses)
	}
}

func TestGoldenSuitePrefixShape(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-prefix shape check is slow")
	}
	// Over a 32-workload prefix, the average-MPKI ordering of the
	// paper's headline must hold: CHiRP best, LRU worst among
	// {lru, srrip, chirp}.
	sum := map[string]float64{}
	for _, w := range workloads.SuiteN(32) {
		for _, pn := range []string{"lru", "srrip", "chirp"} {
			res := goldenRun(t, w.Name, pn)
			sum[pn] += res.MPKI
		}
	}
	if !(sum["chirp"] < sum["srrip"] && sum["srrip"] < sum["lru"]) {
		t.Errorf("headline ordering violated: chirp=%.2f srrip=%.2f lru=%.2f",
			sum["chirp"], sum["srrip"], sum["lru"])
	}
}

// TestGoldenTiming pins the timing pipeline's exact figures at the
// golden budget and the Fig. 8 walk penalty. The values were recorded
// from the record-at-a-time pipeline that walked each L2 unit's misses
// through a walker of its own, so they prove the batched record loop
// bit-identical to it rather than merely self-consistent. Cycles and
// L2TLBMisses are post-warmup; PageWalks and PageFaults cover the
// whole run. Each pin is checked on the one-policy pipeline.New
// reference and on the suite timing path, with a stream cache, over
// every registered policy, the way the timing figures run.
//
// The front-end figures — branch accuracy, BTB hit ratio and DRAM
// accesses, all whole-run and policy-independent — are pinned exactly
// as well, so that a drift in the cache, BTB or perceptron kernels
// fails by name rather than only through Cycles.
func TestGoldenTiming(t *testing.T) {
	type pin struct {
		cycles, misses, walks, faults uint64
		branchAcc, btbHit             float64
		dram                          uint64
	}
	got := func(r pipeline.Result) pin {
		return pin{r.Cycles, r.L2TLBMisses, r.PageWalks, r.PageFaults, r.BranchAccuracy, r.BTBHitRatio, r.DRAMAccesses}
	}
	names := sim.PolicyNames()
	pols, err := sim.Factories(names)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload, policy string
		want             pin
	}{
		{"spec-000", "lru", pin{251489, 179, 646, 646, 0.8064861967300991, 0.9895491803278689, 651}},
		{"db-003", "chirp", pin{382023, 513, 1382, 1336, 0.9747835905156191, 0.998034811903425, 1338}},
		{"web-000", "ghrp", pin{349304, 315, 1234, 1208, 0.8225476839237057, 0.6032016348773842, 1220}},
		{"sci-000", "srrip", pin{588119, 1489, 3019, 2121, 0.9813103737925242, 0.9698954921229137, 2126}},
		{"crypto-000", "ship", pin{153238, 7, 66, 66, 0.9976931949250288, 0.6638461538461539, 71}},
		{"bigdata-000", "chirp", pin{408555, 577, 1569, 1465, 0.9604848484848485, 0.9778252299605782, 1470}},
		{"ml-000", "random", pin{183708, 50, 339, 339, 0.9607010090281466, 0.8927335640138409, 488}},
	} {
		w := workloads.ByName(tc.workload)
		if w == nil {
			t.Fatalf("workload %s missing", tc.workload)
		}
		i := slices.Index(names, tc.policy)
		if i < 0 {
			t.Fatalf("policy %s not registered", tc.policy)
		}
		m, err := pipeline.New(pipeline.DefaultConfig(goldenInstr, 150), pols[i].New(), func() tlb.Policy { return policy.NewLRU() })
		if err != nil {
			t.Fatal(err)
		}
		ref, err := m.Run(trace.NewLimit(w.Source(), goldenInstr))
		if err != nil {
			t.Fatal(err)
		}
		if got := got(ref); got != tc.want {
			t.Errorf("%s/%s pipeline.New timing = %+v, want %+v", tc.workload, tc.policy, got, tc.want)
		}
		rows, err := sim.RunSuiteTimingCtx(context.Background(), []*workloads.Workload{w}, pols,
			sim.DefaultTLBOnlyConfig(goldenInstr), 150, sim.SuiteOptions{StreamCache: l2stream.NewCache(0)})
		if err != nil {
			t.Fatal(err)
		}
		if got := got(rows[i].Result); got != tc.want {
			t.Errorf("%s/%s suite timing = %+v, want %+v", tc.workload, tc.policy, got, tc.want)
		}
	}
}
