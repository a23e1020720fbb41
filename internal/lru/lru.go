// Package lru is the machine model's one set-associative exact-LRU
// array. The caches (mem.Cache), the BTB (branch.BTB), the timing
// front end's L1 TLBs and the capture's L1 TLB filter keep their
// entries in a Sets; each keeps its own set-index and tag split and
// its own counters.
package lru

// Sets is a set-associative array of tagged entries under true LRU
// replacement. Each entry carries a payload P: struct{} for a
// membership-only structure (a cache, the L1 filter), the frame for a
// TLB, the target for a BTB.
//
// Each set keeps its valid entries most-recently-used first, with a
// per-set count of how many are valid, instead of a valid bit and a
// recency rank per way. Under true LRU, which accesses hit depends only
// on the access order, never on which way an entry occupies: a set's
// recency ranks are a permutation, so its LRU entry is unique, and
// where a fill lands changes nothing a later access can observe. This
// layout therefore reproduces an age-counter LRU's hits, payloads,
// evictions and evicted tags access for access (pinned by
// TestSetsMatchAgeCounterOracle), while a hit costs a short scan and
// at most one memmove and a fill needs no victim search. Lookup and
// Fill stay small enough for the compiler to inline them into their
// callers, the timing front end's hottest kernels.
type Sets[P any] struct {
	ways    int
	entries []entry[P] // sets × ways; each set's valid prefix, MRU first
	used    []int32    // valid entries per set
}

// entry puts its payload first, so an empty payload adds no padding.
type entry[P any] struct {
	payload P
	tag     uint64
}

// New returns an empty sets × ways array.
func New[P any](sets, ways int) Sets[P] {
	return Sets[P]{ways: ways, entries: make([]entry[P], sets*ways), used: make([]int32, sets)}
}

// Lookup probes set for tag. A hit moves the entry to the front of its
// set and returns its payload, which the caller may overwrite until
// its next call on s; a miss returns nil and changes nothing.
//
//chirp:hotpath
func (s *Sets[P]) Lookup(set, tag uint64) *P {
	base := int(set) * s.ways
	es := s.entries[base : base+int(s.used[set])]
	for i := range es {
		if es[i].tag == tag {
			if i > 0 { // an MRU hit, the common case, moves nothing
				e := es[i]
				copy(es[1:i+1], es[:i])
				es[0] = e
			}
			return &es[0].payload
		}
	}
	return nil
}

// Fill installs p under tag, which must miss in set (as after a nil
// Lookup), as the set's MRU entry: into a free way, else in place of
// the set's LRU entry, whose tag Fill reports.
//
//chirp:hotpath
func (s *Sets[P]) Fill(set, tag uint64, p P) (evicted bool, evictedTag uint64) {
	base, n := int(set)*s.ways, int(s.used[set])
	if n < s.ways {
		s.used[set]++
		n++
	} else {
		evicted, evictedTag = true, s.entries[base+n-1].tag
	}
	es := s.entries[base : base+n]
	copy(es[1:], es)
	es[0] = entry[P]{p, tag}
	return evicted, evictedTag
}
