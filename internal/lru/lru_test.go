package lru

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// ageSets is the test-only reference model: the age-counter true-LRU
// design, written independently of Sets' MRU-ordered layout so that
// the two cannot share a bug. Each way keeps a tag, a payload and the
// time of its last use (0 while the way is invalid); a fill takes the
// first invalid way, else the way used longest ago.
type ageSets[P any] struct {
	ways     int
	now      uint64
	tags     []uint64
	payloads []P
	lastUse  []uint64
}

// find returns the way holding tag in set and true, else the way a
// fill would take and false.
func (a *ageSets[P]) find(set, tag uint64) (int, bool) {
	base := int(set) * a.ways
	victim := base
	for w := base; w < base+a.ways; w++ {
		if a.lastUse[w] != 0 && a.tags[w] == tag {
			return w, true
		}
		if a.lastUse[w] < a.lastUse[victim] {
			victim = w
		}
	}
	return victim, false
}

func (a *ageSets[P]) Lookup(set, tag uint64) *P {
	w, hit := a.find(set, tag)
	if !hit {
		return nil
	}
	a.now++
	a.lastUse[w] = a.now
	return &a.payloads[w]
}

func (a *ageSets[P]) Fill(set, tag uint64, p P) (evicted bool, evictedTag uint64) {
	w, _ := a.find(set, tag)
	if a.lastUse[w] != 0 {
		evicted, evictedTag = true, a.tags[w]
	}
	a.now++
	a.tags[w], a.payloads[w], a.lastUse[w] = tag, p, a.now
	return evicted, evictedTag
}

// keys returns a seeded stream of n keys for a sets × ways array. It
// mixes uniform keys over four times the capacity, a hot half of the
// capacity that mostly fits, and runs of ways+k keys that share one
// set, replayed in cyclic and reversed order so that LRU evicts every
// key just before its reuse. A key's set is its low log2(sets) bits.
func keys(rng *rand.Rand, sets, ways, n int) []uint64 {
	capacity := uint64(sets * ways)
	out := make([]uint64, 0, n)
	for len(out) < n {
		switch rng.IntN(4) {
		case 0:
			for range 64 {
				out = append(out, rng.Uint64N(4*capacity))
			}
		case 1:
			for range 64 {
				out = append(out, rng.Uint64N(capacity/2+1))
			}
		default:
			set, k, reverse := rng.Uint64N(uint64(sets)), uint64(ways+rng.IntN(3)), rng.IntN(2) == 0
			for rep := range 4 {
				for i := range k {
					if reverse && rep%2 == 1 {
						i = k - 1 - i
					}
					out = append(out, i*uint64(sets)+set)
				}
			}
		}
	}
	return out[:n]
}

// drive runs one seeded key stream through a Sets and the model: a
// Lookup per key, and a Fill of payload(key, i) after every miss. With
// refresh, seven hits in eight also overwrite the payload Lookup
// returned, as the BTB updates a taken branch's target. Every hit,
// payload, eviction and evicted tag must agree.
func drive[P comparable](t *testing.T, sets, ways int, seed uint64, refresh bool, payload func(key uint64, i int) P) {
	s := New[P](sets, ways)
	ref := &ageSets[P]{ways: ways, tags: make([]uint64, sets*ways), payloads: make([]P, sets*ways), lastUse: make([]uint64, sets*ways)}
	shift := bits.TrailingZeros(uint(sets))
	for i, key := range keys(rand.New(rand.NewPCG(seed, 0)), sets, ways, 20_000) {
		set, tag := key&uint64(sets-1), key>>shift
		got, want := s.Lookup(set, tag), ref.Lookup(set, tag)
		if (got == nil) != (want == nil) || got != nil && *got != *want {
			t.Fatalf("lookup %d (key %#x): hit %v, model %v, or the payloads differ", i, key, got != nil, want != nil)
		}
		if got == nil {
			p := payload(key, i)
			ev, evTag := s.Fill(set, tag, p)
			if wantEv, wantTag := ref.Fill(set, tag, p); ev != wantEv || evTag != wantTag {
				t.Fatalf("fill %d (key %#x) evicted (%v, %#x), model (%v, %#x)", i, key, ev, evTag, wantEv, wantTag)
			}
		} else if refresh && i%8 != 0 {
			*got, *want = payload(key, i), payload(key, i)
		}
	}
}

// TestSetsMatchAgeCounterOracle drives every payload the module uses
// through the age-counter model: none (the caches and the capture's L1
// filter), a frame filled after each miss (the L1 TLBs) and a target
// refreshed on most lookups (the BTB). The geometries are Table II's
// L1, L2 and L3 caches, its BTB and its L1 TLBs, and every other shape
// the users were tested at, direct-mapped through fully associative
// and a 256-way set.
func TestSetsMatchAgeCounterOracle(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{128, 8}, {256, 16}, {8192, 16}, {1024, 4}, {8, 8},
		{64, 1}, {16, 1}, {32, 2}, {16, 2}, {16, 8}, {32, 8},
		{8, 16}, {4, 16}, {16, 16}, {1, 64}, {2, 256},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%dx%d/seed=%d", g.sets, g.ways, seed)
			t.Run("none/"+name, func(t *testing.T) {
				drive(t, g.sets, g.ways, seed, false, func(uint64, int) struct{} { return struct{}{} })
			})
			t.Run("frame/"+name, func(t *testing.T) {
				drive(t, g.sets, g.ways, seed, false, func(key uint64, _ int) uint64 { return key*0x1000 + 7 })
			})
			t.Run("target/"+name, func(t *testing.T) {
				drive(t, g.sets, g.ways, seed, true, func(key uint64, i int) uint64 { return key<<2 + uint64(i%4)*0x40 })
			})
		}
	}
}
