package pipeline_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

func lruL1() tlb.Policy { return policy.NewLRU() }

func source(t *testing.T, name string, instr uint64) trace.Source {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("workload %s missing", name)
	}
	return trace.NewLimit(w.Source(), instr)
}

func soloRun(t *testing.T, cfg pipeline.Config, workload string, p tlb.Policy) pipeline.Result {
	t.Helper()
	m, err := pipeline.New(cfg, p, lruL1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(source(t, workload, cfg.Instructions))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fusedMachine builds one machine driving a fresh instance of every
// policy in pols.
func fusedMachine(t *testing.T, cfg pipeline.Config, pols []sim.NamedFactory) *pipeline.Machine {
	t.Helper()
	l2 := make([]tlb.Policy, len(pols))
	for i, p := range pols {
		l2[i] = p.New()
	}
	m, err := pipeline.NewMulti(cfg, l2, lruL1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTimingMultiMatchesSolo is the fused timing pipeline's exactness
// gate: one front-end pass driving every registered policy's L2 TLB
// must give each policy the whole Result a solo machine gives it.
func TestTimingMultiMatchesSolo(t *testing.T) {
	pols, err := sim.Factories(sim.PolicyNames())
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		workload string
		instr    uint64
	}
	var variants []variant
	for _, c := range workloads.Categories {
		variants = append(variants, variant{c + "-000", 200_000})
	}
	// A pressure run long enough that the policies' L2 outcomes, and so
	// their translation cycles, already differ when warmup ends.
	variants = append(variants, variant{"db-000", 1_200_000})
	for _, v := range variants {
		cfg := pipeline.DefaultConfig(v.instr, 150)
		t.Run(fmt.Sprintf("%s/instr=%d", v.workload, v.instr), func(t *testing.T) {
			fused, err := fusedMachine(t, cfg, pols).RunMulti(source(t, v.workload, v.instr))
			if err != nil {
				t.Fatal(err)
			}
			if len(fused) != len(pols) {
				t.Fatalf("RunMulti returned %d results for %d policies", len(fused), len(pols))
			}
			for i, p := range pols {
				solo := soloRun(t, cfg, v.workload, p.New())
				if !reflect.DeepEqual(fused[i], solo) {
					t.Errorf("%s: fused result diverged from solo:\nfused: %+v\nsolo:  %+v", p.Name, fused[i], solo)
				}
			}
		})
	}
}

// TestNewMultiRadixWalker pins the radix walker's one-policy limit:
// its PTE fetches go through the shared caches, so two policies on one
// front end would not be exact. With one policy the machine must
// reproduce the single-policy pipeline's figures, pinned here from the
// machine before it drove more than one L2 TLB.
func TestNewMultiRadixWalker(t *testing.T) {
	cfg := pipeline.DefaultConfig(400_000, 150)
	cfg.UseRadixWalker = true
	cfg.PSC.EntriesPerLevel = 32
	if _, err := pipeline.NewMulti(cfg, []tlb.Policy{policy.NewLRU(), policy.NewSRRIP()}, lruL1); err == nil {
		t.Fatal("NewMulti accepted two policies with the radix walker")
	}

	type pin struct {
		cycles, misses, walks, dram, hits, evictions, faults uint64
		avgWalk                                              float64
	}
	want := map[string]pin{
		"lru":   {cycles: 385423, misses: 462, walks: 1402, dram: 1620, hits: 1426, evictions: 381, faults: 1361, avgWalk: 75.71897289586305},
		"chirp": {cycles: 385207, misses: 453, walks: 1393, dram: 1620, hits: 1435, evictions: 372, faults: 1361, avgWalk: 76.05312275664035},
	}
	pols, err := sim.Factories([]string{"lru", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pols {
		m, err := pipeline.NewMulti(cfg, []tlb.Policy{p.New()}, lruL1)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := m.RunMulti(source(t, "db-000", cfg.Instructions))
		if err != nil {
			t.Fatal(err)
		}
		r := rs[0]
		got := pin{r.Cycles, r.L2TLBMisses, r.PageWalks, r.DRAMAccesses, r.L2TLBStats.Hits, r.L2TLBStats.Evictions, r.PageFaults, r.AvgWalkCycles}
		if got != want[p.Name] {
			t.Errorf("%s radix run = %+v, want %+v", p.Name, got, want[p.Name])
		}
		if solo := soloRun(t, cfg, "db-000", p.New()); !reflect.DeepEqual(solo, r) {
			t.Errorf("%s: one-policy NewMulti diverged from New:\nmulti: %+v\nnew:   %+v", p.Name, r, solo)
		}
	}
}

func TestNewMultiRejectsNoPolicy(t *testing.T) {
	if _, err := pipeline.NewMulti(pipeline.DefaultConfig(1000, 150), nil, lruL1); err == nil {
		t.Fatal("NewMulti accepted an empty policy list")
	}
}

// TestMachineRunsOnce: a run releases the machine's TLB arrays to the
// pool, so a second run must refuse instead of touching them.
func TestMachineRunsOnce(t *testing.T) {
	cfg := pipeline.DefaultConfig(100_000, 150)
	m, err := pipeline.New(cfg, policy.NewLRU(), lruL1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(source(t, "spec-000", cfg.Instructions)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(source(t, "spec-000", cfg.Instructions)); err == nil {
		t.Fatal("second Run on a used machine succeeded")
	}

	// A failed run (trace shorter than the warmup) is spent too.
	m, err = pipeline.New(cfg, policy.NewLRU(), lruL1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(source(t, "spec-000", 1000)); err == nil {
		t.Fatal("short trace passed warmup")
	}
	if _, err := m.Run(source(t, "spec-000", cfg.Instructions)); err == nil {
		t.Fatal("Run after a failed run succeeded")
	}
}

// TestRunMultiPublishesL2Lookups: a fused run publishes every unit's
// L2 TLB counters to the default registry once, at the end of the run.
func TestRunMultiPublishesL2Lookups(t *testing.T) {
	const series = `chirp_tlb_lookups_total{level="L2 TLB"}`
	pols, err := sim.Factories([]string{"lru", "srrip", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig(150_000, 150)
	m := fusedMachine(t, cfg, pols)
	before := obs.Default.Snapshot()
	rs, err := m.RunMulti(source(t, "db-000", cfg.Instructions))
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, r := range rs {
		want += r.L2TLBStats.Accesses
	}
	got := obs.Default.Snapshot().Delta(before)[series]
	if want == 0 || got != float64(want) {
		t.Errorf("%s moved by %v, want the units' summed L2 accesses %d", series, got, want)
	}
}

// TestRunMultiAllocationFree: the record loop allocates nothing per
// record. Machines and materialised sources are built before counting,
// so a count covers RunMulti alone; a run over twice the instructions
// may allocate at most one object more than the shorter run (a
// page-table node for a newly touched region), where an allocation per
// translation would add tens of thousands.
func TestRunMultiAllocationFree(t *testing.T) {
	pols, err := sim.Factories(sim.PolicyNames())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(workload string, instr uint64) float64 {
		recs := trace.Collect(source(t, workload, instr))
		cfg := pipeline.DefaultConfig(instr, 150)
		const runs = 3
		// AllocsPerRun makes one warm-up call before the counted runs.
		machines := make([]*pipeline.Machine, runs+1)
		srcs := make([]*trace.SliceSource, runs+1)
		for i := range machines {
			machines[i] = fusedMachine(t, cfg, pols)
			srcs[i] = trace.NewSliceSource(recs)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := machines[next].RunMulti(srcs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	for _, workload := range []string{"spec-000", "db-000", "web-000", "ml-000"} {
		short, long := allocs(workload, 200_000), allocs(workload, 400_000)
		if long > short+1 {
			t.Errorf("%s: RunMulti allocated %v objects over 400k instructions, %v over 200k; the record loop allocates", workload, long, short)
		}
	}
}
