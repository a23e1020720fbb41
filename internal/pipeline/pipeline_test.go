package pipeline

import (
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

func lruFactory() tlb.Policy { return policy.NewLRU() }

func runOn(t *testing.T, name string, cfg Config, p tlb.Policy) Result {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("workload %s missing", name)
	}
	m, err := New(cfg, p, lruFactory)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(trace.NewLimit(w.Source(), cfg.Instructions))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIPCPlausible(t *testing.T) {
	cfg := DefaultConfig(150_000, 150)
	res := runOn(t, "spec-000", cfg, policy.NewLRU())
	if res.IPC <= 0 || res.IPC > 1 {
		t.Fatalf("IPC = %v, want (0, 1] for an in-order model", res.IPC)
	}
	if res.Instructions == 0 || res.Cycles < res.Instructions {
		t.Fatalf("cycles (%d) must be at least instructions (%d)", res.Cycles, res.Instructions)
	}
	if res.BranchAccuracy <= 0.5 || res.BranchAccuracy > 1 {
		t.Errorf("branch accuracy = %v implausible", res.BranchAccuracy)
	}
	if res.PageWalks == 0 || res.PageFaults == 0 {
		t.Errorf("no page activity: %+v", res)
	}
}

func TestDeterministic(t *testing.T) {
	cfg := DefaultConfig(120_000, 150)
	a := runOn(t, "db-000", cfg, policy.NewSRRIP())
	b := runOn(t, "db-000", cfg, policy.NewSRRIP())
	if a.Cycles != b.Cycles || a.L2TLBMisses != b.L2TLBMisses {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestHigherWalkPenaltySlower(t *testing.T) {
	low := runOn(t, "db-000", DefaultConfig(150_000, 20), policy.NewLRU())
	high := runOn(t, "db-000", DefaultConfig(150_000, 340), policy.NewLRU())
	if high.IPC >= low.IPC {
		t.Errorf("340-cycle walks (IPC %v) must be slower than 20-cycle walks (IPC %v)", high.IPC, low.IPC)
	}
	// Miss counts are penalty-independent.
	if high.L2TLBMisses != low.L2TLBMisses {
		t.Errorf("misses changed with penalty: %d vs %d", high.L2TLBMisses, low.L2TLBMisses)
	}
}

func TestCHiRPSpeedsUpPressureWorkload(t *testing.T) {
	// db-000 is a pressure-profile workload where CHiRP cuts misses
	// substantially; with a 150-cycle walk that must surface as IPC.
	cfg := DefaultConfig(400_000, 150)
	lru := runOn(t, "db-000", cfg, policy.NewLRU())
	chirp := runOn(t, "db-000", cfg, core.MustNew(core.DefaultConfig()))
	if chirp.MPKI >= lru.MPKI {
		t.Fatalf("CHiRP MPKI %v not below LRU %v on db-000", chirp.MPKI, lru.MPKI)
	}
	if chirp.IPC <= lru.IPC {
		t.Errorf("CHiRP IPC %v not above LRU %v despite fewer misses", chirp.IPC, lru.IPC)
	}
}

func TestRadixWalkerRuns(t *testing.T) {
	cfg := DefaultConfig(150_000, 150)
	cfg.UseRadixWalker = true
	cfg.PSC.EntriesPerLevel = 32
	res := runOn(t, "spec-000", cfg, policy.NewLRU())
	if res.PageWalks == 0 {
		t.Fatal("radix walker recorded no walks")
	}
	if res.AvgWalkCycles <= 0 {
		t.Errorf("avg walk cycles = %v, want positive", res.AvgWalkCycles)
	}
	// Warm PSCs + caches should make average walks far cheaper than 4
	// DRAM accesses.
	if res.AvgWalkCycles > 500 {
		t.Errorf("avg walk cycles = %v implausibly high", res.AvgWalkCycles)
	}
}

func TestWarmupRequired(t *testing.T) {
	cfg := DefaultConfig(1_000_000, 150)
	w := workloads.ByName("spec-000")
	m, err := New(cfg, policy.NewLRU(), lruFactory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(trace.NewLimit(w.Source(), 1000)); err == nil {
		t.Fatal("short trace must fail warmup")
	}
}

func TestNilL1Factory(t *testing.T) {
	if _, err := New(DefaultConfig(1000, 150), policy.NewLRU(), nil); err == nil {
		t.Fatal("nil L1 factory accepted")
	}
	// The L1 TLBs run exact LRU whatever the factory builds, so a
	// factory of any other policy is refused by name.
	for _, l1 := range []tlb.Policy{policy.NewSRRIP(), core.MustNew(core.DefaultConfig()), nil} {
		for _, l2 := range []tlb.Policy{nil, policy.NewLRU()} {
			_, err := New(DefaultConfig(1000, 150), l2, func() tlb.Policy { return l1 })
			name := "nil"
			if l1 != nil {
				name = l1.Name()
			}
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("L1 factory building %s: err = %v, want a refusal naming it", name, err)
			}
		}
	}
}

// TestPageTableOnlyForRadixWalker: the flat walk takes frames from the
// address space alone, so a front-end or one-policy flat-penalty run
// leaves its space without a single page-table node; a radix-walker
// run builds the table its walks read.
func TestPageTableOnlyForRadixWalker(t *testing.T) {
	radix := DefaultConfig(200_000, 150)
	radix.UseRadixWalker = true
	for _, c := range []struct {
		name  string
		cfg   Config
		l2    tlb.Policy
		nodes bool
	}{
		{"front end", DefaultConfig(200_000, 150), nil, false},
		{"lru flat", DefaultConfig(200_000, 150), policy.NewLRU(), false},
		{"lru radix", radix, policy.NewLRU(), true},
	} {
		m, err := New(c.cfg, c.l2, lruFactory)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(trace.NewLimit(workloads.ByName("db-000").Source(), c.cfg.Instructions))
		if err != nil {
			t.Fatal(err)
		}
		if res.PageFaults == 0 {
			t.Fatalf("%s: no page was touched", c.name)
		}
		if n := m.space.PageTableNodes(); (n > 0) != c.nodes {
			t.Errorf("%s: %d page-table nodes after %d page faults", c.name, n, res.PageFaults)
		}
	}
}
