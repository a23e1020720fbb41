package pipeline_test

import (
	"fmt"
	"testing"

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

// TestTimingMultiMatchesSolo: one policy-free front-end pass serves
// every policy's timing. For every registered policy, the one-policy
// machine's cycles are the front end's plus its post-warmup L2 misses
// × the flat penalty, and every front-end figure — instructions,
// branch, BTB and indirect accuracy, page faults, DRAM accesses — is
// the front end's.
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
	// their cycles, already differ when warmup ends.
	variants = append(variants, variant{"db-000", 1_200_000})
	for _, v := range variants {
		cfg := pipeline.DefaultConfig(v.instr, 150)
		t.Run(fmt.Sprintf("%s/instr=%d", v.workload, v.instr), func(t *testing.T) {
			front := soloRun(t, cfg, v.workload, nil)
			for _, p := range pols {
				solo := soloRun(t, cfg, v.workload, p.New())
				derived := front
				derived.Cycles += solo.L2TLBMisses * cfg.WalkPenalty
				type shared struct {
					instr, cycles, faults, dram uint64
					branch, btb, ind            float64
				}
				got := shared{derived.Instructions, derived.Cycles, derived.PageFaults, derived.DRAMAccesses, derived.BranchAccuracy, derived.BTBHitRatio, derived.IndirectHit}
				want := shared{solo.Instructions, solo.Cycles, solo.PageFaults, solo.DRAMAccesses, solo.BranchAccuracy, solo.BTBHitRatio, solo.IndirectHit}
				if got != want {
					t.Errorf("%s: front end + misses × penalty = %+v, solo machine %+v", p.Name, got, want)
				}
			}
		})
	}
}

// TestNewMultiRadixWalker: the radix walker's PTE fetches go through
// the caches, so it runs only on a one-policy machine — the
// policy-free front end refuses it. Its figures on db-000 are pinned
// from the multi-policy machine that once served the suite, run with
// one policy.
func TestNewMultiRadixWalker(t *testing.T) {
	cfg := pipeline.DefaultConfig(400_000, 150)
	cfg.UseRadixWalker = true
	cfg.PSC.EntriesPerLevel = 32
	if _, err := pipeline.New(cfg, nil, lruL1); err == nil {
		t.Fatal("the policy-free front end accepted the radix walker")
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
		r := soloRun(t, cfg, "db-000", p.New())
		got := pin{r.Cycles, r.L2TLBMisses, r.PageWalks, r.DRAMAccesses, r.L2TLBStats.Hits, r.L2TLBStats.Evictions, r.PageFaults, r.AvgWalkCycles}
		if got != want[p.Name] {
			t.Errorf("%s radix run = %+v, want %+v", p.Name, got, want[p.Name])
		}
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
	if _, err := m.Finish(); err == nil {
		t.Fatal("Finish on a finished machine succeeded")
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

// TestFrontEndAllocationFree: the record loop allocates nothing per
// record, on the policy-free front end and on a one-policy machine
// under every registered policy. Machines and materialised sources are
// built before counting, so a count covers Run alone; a run over twice
// the instructions may allocate at most one object more than the
// shorter run (the frame table of a newly touched region in
// paging.Space), where an allocation per translation would add tens
// of thousands.
func TestFrontEndAllocationFree(t *testing.T) {
	pols, err := sim.Factories(sim.PolicyNames())
	if err != nil {
		t.Fatal(err)
	}
	machines := []sim.NamedFactory{{Name: "front end", New: func() tlb.Policy { return nil }}}
	machines = append(machines, pols...)
	allocs := func(workload string, instr uint64, l2 sim.NamedFactory) float64 {
		recs := trace.Collect(source(t, workload, instr))
		cfg := pipeline.DefaultConfig(instr, 150)
		const runs = 3
		// AllocsPerRun makes one warm-up call before the counted runs.
		ms := make([]*pipeline.Machine, runs+1)
		srcs := make([]*trace.SliceSource, runs+1)
		for i := range ms {
			if ms[i], err = pipeline.New(cfg, l2.New(), lruL1); err != nil {
				t.Fatal(err)
			}
			srcs[i] = trace.NewSliceSource(recs)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := ms[next].Run(srcs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	for _, workload := range []string{"spec-000", "db-000", "web-000", "ml-000"} {
		for _, l2 := range machines {
			short, long := allocs(workload, 200_000, l2), allocs(workload, 400_000, l2)
			if long > short+1 {
				t.Errorf("%s/%s: Run allocated %v objects over 400k instructions, %v over 200k; the record loop allocates", workload, l2.Name, long, short)
			}
		}
	}
}
