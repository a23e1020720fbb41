package tlb

import (
	"testing"
	"testing/quick"
)

// TestAccountingInvariants drives random access streams through a TLB
// with a FIFO policy and checks the counter identities that every
// driver depends on.
func TestAccountingInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		p := &fifoPolicy{}
		tl, err := New(Config{Name: "q", Entries: 32, Ways: 4, PageShift: 12}, p)
		if err != nil {
			return false
		}
		for _, op := range ops {
			a := &Access{PC: uint64(op) << 2, VPN: uint64(op % 97)}
			if _, hit := tl.Lookup(a); !hit {
				tl.Insert(a, a.VPN)
			}
		}
		st := tl.Stats()
		if st.Hits+st.Misses != st.Accesses {
			return false
		}
		if st.Evictions > st.Misses {
			return false
		}
		return st.Accesses == uint64(len(ops))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLookupAfterInsertAlwaysHits is the fundamental TLB contract.
func TestLookupAfterInsertAlwaysHits(t *testing.T) {
	f := func(vpns []uint16) bool {
		tl, err := New(Config{Name: "q", Entries: 64, Ways: 8, PageShift: 12}, &fifoPolicy{})
		if err != nil {
			return false
		}
		for _, v := range vpns {
			a := &Access{VPN: uint64(v)}
			if _, hit := tl.Lookup(a); !hit {
				tl.Insert(a, uint64(v)*7)
			}
			// Immediately after a miss+insert (or a hit), the VPN must be
			// resident and translate consistently.
			b := &Access{VPN: uint64(v)}
			ppn, hit := tl.Lookup(b)
			if !hit || ppn != uint64(v)*7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEfficiencyBounded checks 0 ≤ efficiency ≤ 1 under arbitrary
// streams.
func TestEfficiencyBounded(t *testing.T) {
	f := func(vpns []uint8) bool {
		tl, err := New(Config{Name: "q", Entries: 16, Ways: 4, PageShift: 12}, &fifoPolicy{})
		if err != nil {
			return false
		}
		for _, v := range vpns {
			a := &Access{VPN: uint64(v % 40)}
			if _, hit := tl.Lookup(a); !hit {
				tl.Insert(a, 1)
			}
		}
		tl.FlushAccounting()
		eff := tl.Stats().Efficiency()
		return eff >= 0 && eff <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
