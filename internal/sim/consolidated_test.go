package sim

import (
	"testing"

	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

func TestRunConsolidatedBasics(t *testing.T) {
	ws := workloads.SuiteN(4)
	cfg := DefaultConsolidatedConfig(400_000)
	res, err := RunConsolidated(ws, policy.NewLRU(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads != 4 || res.Switches == 0 {
		t.Fatalf("consolidation shape wrong: %+v", res)
	}
	if res.MPKI <= 0 {
		t.Errorf("MPKI = %v, want positive", res.MPKI)
	}
}

func TestConsolidatedFlushCostsMore(t *testing.T) {
	ws := workloads.SuiteN(2)
	cfg := DefaultConsolidatedConfig(400_000)
	asid, err := RunConsolidated(ws, policy.NewLRU(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FlushOnSwitch = true
	flush, err := RunConsolidated(ws, policy.NewLRU(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if flush.MPKI <= asid.MPKI {
		t.Errorf("flush-per-switch MPKI (%v) must exceed ASID-tagged MPKI (%v)", flush.MPKI, asid.MPKI)
	}
}

func TestConsolidatedRejectsEmpty(t *testing.T) {
	if _, err := RunConsolidated(nil, policy.NewLRU(), DefaultConsolidatedConfig(1000)); err == nil {
		t.Fatal("empty workload set accepted")
	}
}

func TestConsolidatedASIDIsolation(t *testing.T) {
	// Two different workloads may touch the same VPNs; ASID tagging
	// must keep their translations apart. Drive a tiny TLB directly.
	tl, err := tlb.New(tlb.Config{Name: "t", Entries: 16, Ways: 8, PageShift: 12}, policy.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	a0 := &tlb.Access{VPN: 5, ASID: 0}
	a1 := &tlb.Access{VPN: 5, ASID: 1}
	tl.Lookup(a0)
	tl.Insert(a0, 100)
	if _, hit := tl.Lookup(a1); hit {
		t.Fatal("ASID 1 hit ASID 0's entry")
	}
	tl.Insert(a1, 200)
	if ppn, hit := tl.Lookup(a0); !hit || ppn != 100 {
		t.Errorf("ASID 0 translation corrupted: (%d, %v)", ppn, hit)
	}
	if ppn, hit := tl.Lookup(a1); !hit || ppn != 200 {
		t.Errorf("ASID 1 translation wrong: (%d, %v)", ppn, hit)
	}
	tl.Flush()
	if _, hit := tl.Lookup(a1); hit {
		t.Error("Flush left entries resident")
	}
}

func TestStridePrefetcherLearns(t *testing.T) {
	pf := newStridePrefetcher(2)
	const pc = 0x4000
	// Stride-1 misses: after two repeats, prefetches fire.
	var got []uint64
	for v := uint64(10); v < 20; v++ {
		got = pf.observe(pc, v)
	}
	if len(got) != 2 || got[0] != 20 || got[1] != 21 {
		t.Fatalf("prefetch targets = %v, want [20 21]", got)
	}
	// A stride change drops confidence and silences prefetching.
	if out := pf.observe(pc, 100); out != nil {
		t.Errorf("stride break still prefetched: %v", out)
	}
}

func TestStridePrefetcherNegativeStride(t *testing.T) {
	pf := newStridePrefetcher(1)
	const pc = 0x8000
	var got []uint64
	for v := uint64(100); v > 90; v -= 2 {
		got = pf.observe(pc, v)
	}
	if len(got) != 1 || got[0] != 90 {
		t.Fatalf("negative-stride prefetch = %v, want [90]", got)
	}
}

func TestPrefetchReducesStreamMisses(t *testing.T) {
	// A pure sequential stream through a dedicated PC: the stride
	// prefetcher must remove a large share of its L2 misses.
	var recs []trace.Record
	for i := 0; i < 40_000; i++ {
		recs = append(recs, trace.Record{
			PC: 0x400100, Class: trace.ClassLoad,
			EA: uint64(0x10000000) + uint64(i)*4096, Skip: 9,
		})
	}
	run := func(dist int) float64 {
		cfg := DefaultTLBOnlyConfig(uint64(len(recs) * 10))
		cfg.PrefetchDistance = dist
		res, err := RunTLBOnly(trace.NewSliceSource(recs), policy.NewLRU(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MPKI
	}
	without := run(0)
	with := run(4)
	if with >= without*0.5 {
		t.Errorf("stride prefetch MPKI %v, want < half of %v on a pure stream", with, without)
	}
}
