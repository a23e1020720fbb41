package pipeline

import "github.com/chirplab/chirp/internal/tlb"

// l1TLB is one of the machine's L1 TLBs: set-associative, exact LRU,
// with no policy interface. Each set keeps its valid entries most
// recently used first, the layout of mem.Cache and l2stream.l1Filter.
// Under true LRU which lookups hit depends only on the access order,
// never on way placement, so it reproduces the hits, misses and
// evictions of a tlb.TLB under policy.LRU access for access (pinned
// by TestL1TLBMatchesAgeLRUOracle). Each entry carries its frame, so a
// hit returns it after a short scan and at most one memmove, and a
// fill needs no victim search.
type l1TLB struct {
	name    string
	ways    int
	mask    uint64
	entries []l1Entry // sets × ways; each set's valid prefix, MRU first
	used    []int32   // valid entries per set
	// stats counts lookups, hits, misses, inserts and evictions.
	stats tlb.Stats
}

type l1Entry struct{ vpn, ppn uint64 }

func newL1TLB(cfg tlb.Config) (*l1TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Entries / cfg.Ways
	return &l1TLB{
		name:    cfg.Name,
		ways:    cfg.Ways,
		mask:    uint64(sets - 1),
		entries: make([]l1Entry, cfg.Entries),
		used:    make([]int32, sets),
	}, nil
}

// lookup probes for vpn. A hit moves the entry to the front of its set
// and returns its frame.
//
//chirp:hotpath
func (t *l1TLB) lookup(vpn uint64) (ppn uint64, hit bool) {
	t.stats.Accesses++
	set := vpn & t.mask
	base := int(set) * t.ways
	es := t.entries[base : base+int(t.used[set])]
	for i := range es {
		if es[i].vpn == vpn {
			e := es[i]
			if i > 0 { // an MRU hit moves nothing
				copy(es[1:i+1], es[:i])
				es[0] = e
			}
			t.stats.Hits++
			return e.ppn, true
		}
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
	set := vpn & t.mask
	base := int(set) * t.ways
	n := int(t.used[set])
	if n < t.ways {
		t.used[set] = int32(n + 1)
		n++
	} else {
		t.stats.Evictions++
		evicted, evictedVPN = true, t.entries[base+n-1].vpn
	}
	es := t.entries[base : base+n]
	copy(es[1:], es)
	es[0] = l1Entry{vpn, ppn}
	return evicted, evictedVPN
}

// publish adds the counters to the per-level chirp_tlb_* families. A
// machine publishes once, when its run finishes.
func (t *l1TLB) publish() { tlb.PublishStats(t.name, t.stats, tlb.Stats{}) }
