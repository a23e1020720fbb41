package mixed

import (
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/workloads"
)

func TestSizeString(t *testing.T) {
	if Size4K.String() != "4K" || Size2M.String() != "2M" {
		t.Error("size strings wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8, NewLRU()); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := New(100, 8, NewLRU()); err == nil {
		t.Error("non-multiple accepted")
	}
	if _, err := New(24, 8, NewLRU()); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New(64, 8, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestDualProbeHitBothSizes(t *testing.T) {
	tl, err := New(64, 8, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	// Install a 2 MB entry covering VPNs [0x200*512, 0x201*512).
	a2m := &Access{PC: 0x100, VPN4K: 0x200 << 9, Size: Size2M}
	if tl.Lookup(a2m) {
		t.Fatal("cold lookup hit")
	}
	tl.Insert(a2m)
	// Any 4 KB VPN under that superpage must hit when the mapping is
	// 2 MB-backed.
	probe := &Access{PC: 0x104, VPN4K: 0x200<<9 | 0x1ff, Size: Size2M}
	if !tl.Lookup(probe) {
		t.Fatal("covered VPN missed the 2 MB entry")
	}
	// A 4 KB entry elsewhere coexists.
	a4k := &Access{PC: 0x108, VPN4K: 42, Size: Size4K}
	tl.Lookup(a4k)
	tl.Insert(a4k)
	if !tl.Lookup(a4k) {
		t.Fatal("4 KB entry missed after insert")
	}
	st := tl.Stats()
	if st.Misses4K != 1 || st.Misses2M != 1 {
		t.Errorf("per-size misses = %d/%d, want 1/1", st.Misses4K, st.Misses2M)
	}
}

func TestReachLossAccounting(t *testing.T) {
	// Single-set TLB: fill with used 2 MB entries, then evict one.
	tl, err := New(4, 4, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		a := &Access{PC: 0x100, VPN4K: i << 9, Size: Size2M}
		tl.Lookup(a)
		tl.Insert(a)
		tl.Lookup(a) // mark used
	}
	a := &Access{PC: 0x100, VPN4K: 99 << 9, Size: Size2M}
	tl.Lookup(a)
	tl.Insert(a) // evicts a used 2 MB entry
	st := tl.Stats()
	if st.Evicted2M != 1 {
		t.Fatalf("evicted2M = %d, want 1", st.Evicted2M)
	}
	if st.ReachLostPages != 512 {
		t.Errorf("reach lost = %d pages, want 512", st.ReachLostPages)
	}
}

func TestCostAwarePrefersDead4K(t *testing.T) {
	ca, err := NewCostAware(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tl, err := New(4, 4, ca)
	if err != nil {
		t.Fatal(err)
	}
	AttachTLB(tl)
	// Fill the set: ways 0-1 are 2 MB, ways 2-3 are 4 KB.
	fills := []*Access{
		{PC: 0x100, VPN4K: 1 << 9, Size: Size2M},
		{PC: 0x100, VPN4K: 2 << 9, Size: Size2M},
		{PC: 0x100, VPN4K: 7, Size: Size4K},
		{PC: 0x100, VPN4K: 11, Size: Size4K},
	}
	for _, a := range fills {
		tl.Lookup(a)
		tl.Insert(a)
	}
	// Force the CHiRP metadata to mark everything dead; the cost-aware
	// victim must still pick a 4 KB way (2 or 3).
	for w := 0; w < 4; w++ {
		ca.inner.ForceDead(0, w, true)
	}
	a := &Access{PC: 0x200, VPN4K: 99, Size: Size4K}
	way := ca.Victim(0, a)
	if tl.EntrySize(0, way) != Size4K {
		t.Errorf("cost-aware victim way %d is 2MB; wanted a 4K victim", way)
	}
	// With only 2 MB entries dead, it falls back to the dead 2 MB one.
	for w := 0; w < 4; w++ {
		ca.inner.ForceDead(0, w, false)
	}
	ca.inner.ForceDead(0, 0, true)
	if way := ca.Victim(0, a); way != 0 {
		t.Errorf("victim = %d, want dead 2MB way 0 when no dead 4K exists", way)
	}
}

func TestRunMixedWorkload(t *testing.T) {
	// Find a workload with huge regions.
	var w *workloads.Workload
	for _, c := range workloads.SuiteN(16) {
		if len(newClassifier(c.Program()).ranges) > 0 {
			w = c
			break
		}
	}
	if w == nil {
		t.Fatal("no workload with 2MB-backed regions in the first 16")
	}
	res, err := Run(w, NewLRU(), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.Stats.Accesses == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if res.HugeShare <= 0 {
		t.Errorf("huge share = %v, want positive", res.HugeShare)
	}
	// Huge-backed translation reduces the L2 footprint: MPKI must be
	// finite and sane.
	if res.MPKI < 0 || res.MPKI > 500 {
		t.Errorf("MPKI = %v implausible", res.MPKI)
	}
}

func TestCompareOnSuite(t *testing.T) {
	rows, err := CompareOnSuite(workloads.SuiteN(8), 2, 150_000, func() []Policy {
		ca, err := NewCostAware(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return []Policy{NewLRU(), ca}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		if len(row) != 2 || row[0].Policy != "mixed-lru" {
			t.Fatalf("row malformed: %+v", row)
		}
	}
}
