package l2stream

import (
	"fmt"
	"testing"

	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
)

// TestL1FilterMatchesLRUTLB: fed testRecords' fetch and data pages at
// the test L1s' geometry, Table II's, a direct-mapped and a fully
// associative one, an l1Filter hits exactly when a tlb.TLB under
// policy.LRU (the direct reference path's L1) does, and counts the
// same misses.
func TestL1FilterMatchesLRUTLB(t *testing.T) {
	recs := testRecords(20_000)
	for _, g := range []struct{ entries, ways int }{{16, 4}, {64, 8}, {16, 1}, {64, 64}} {
		t.Run(fmt.Sprintf("%dx%d", g.entries, g.ways), func(t *testing.T) {
			cfg := tlb.Config{Name: "L1", Entries: g.entries, Ways: g.ways, PageShift: 12}
			f, err := newL1Filter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tlb.New(cfg, policy.NewLRU())
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Release()
			access := func(i int, vpn uint64) {
				a := tlb.Access{VPN: vpn}
				_, want := ref.Lookup(&a)
				if !want {
					ref.Insert(&a, vpn)
				}
				if got := f.access(vpn); got != want {
					t.Fatalf("record %d, vpn %#x: filter hit %v, tlb.TLB %v", i, vpn, got, want)
				}
			}
			for i := range recs {
				access(i, recs[i].PC>>12)
				if recs[i].Class.IsMemory() {
					access(i, recs[i].EA>>12)
				}
			}
			if want := ref.Stats().Misses; f.misses != want {
				t.Errorf("filter misses %d, tlb.TLB %d", f.misses, want)
			}
		})
	}
}
