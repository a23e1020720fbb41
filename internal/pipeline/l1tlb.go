package pipeline

import (
	"github.com/chirplab/chirp/internal/lru"
	"github.com/chirplab/chirp/internal/tlb"
)

// l1TLB is one of the machine's L1 TLBs: set-associative, exact LRU,
// with no policy interface. Its entries are an lru.Sets keyed by the
// whole VPN and carrying the frame, so it reproduces the hits, misses
// and evictions of a tlb.TLB under policy.LRU access for access
// (pinned by TestL1TLBMatchesAgeLRUOracle).
type l1TLB struct {
	name    string
	mask    uint64
	entries lru.Sets[uint64]
	// stats counts lookups, hits, misses, inserts and evictions.
	stats tlb.Stats
}

func newL1TLB(cfg tlb.Config) (*l1TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Entries / cfg.Ways
	return &l1TLB{
		name:    cfg.Name,
		mask:    uint64(sets - 1),
		entries: lru.New[uint64](sets, cfg.Ways),
	}, nil
}

// lookup probes for vpn. A hit moves the entry to the front of its set
// and returns its frame.
//
//chirp:hotpath
func (t *l1TLB) lookup(vpn uint64) (ppn uint64, hit bool) {
	t.stats.Accesses++
	if frame := t.entries.Lookup(vpn&t.mask, vpn); frame != nil {
		t.stats.Hits++
		return *frame, true
	}
	t.stats.Misses++
	return 0, false
}

// insert fills vpn→ppn at the front of its set after a missing lookup.
// A full set's LRU entry falls off; insert reports whether one did and
// its VPN.
//
//chirp:hotpath
func (t *l1TLB) insert(vpn, ppn uint64) (evicted bool, evictedVPN uint64) {
	t.stats.Inserts++
	evicted, evictedVPN = t.entries.Fill(vpn&t.mask, vpn, ppn)
	if evicted {
		t.stats.Evictions++
	}
	return evicted, evictedVPN
}

// publish adds the counters to the per-level chirp_tlb_* families. A
// machine publishes once, when its run finishes.
func (t *l1TLB) publish() { tlb.PublishStats(t.name, t.stats, tlb.Stats{}) }
