package l2stream

import (
	"github.com/chirplab/chirp/internal/lru"
	"github.com/chirplab/chirp/internal/tlb"
)

// l1Filter is the capture path's stand-in for one L1 TLB simulation: a
// true-LRU membership filter over an lru.Sets keyed by the whole VPN.
// It produces the same hit/miss sequence, and so the same miss count,
// as a tlb.TLB running policy.NewLRU, at a fraction of the cost.
type l1Filter struct {
	mask   uint64
	vpns   lru.Sets[struct{}]
	misses uint64
}

func newL1Filter(cfg tlb.Config) (*l1Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Entries / cfg.Ways
	return &l1Filter{
		mask: uint64(sets - 1),
		vpns: lru.New[struct{}](sets, cfg.Ways),
	}, nil
}

// access looks vpn up, updates recency, and fills on miss. It reports
// whether the lookup hit.
//
//chirp:hotpath
func (f *l1Filter) access(vpn uint64) bool {
	set := vpn & f.mask
	if f.vpns.Lookup(set, vpn) != nil {
		return true
	}
	f.misses++
	f.vpns.Fill(set, vpn, struct{}{})
	return false
}
