package pipeline

import (
	"fmt"
	"testing"

	"github.com/chirplab/chirp/internal/paging"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// ageTLB is the test-only reference model of an L1 TLB: the
// age-counter true-LRU design (per-way valid bit, VPN, frame and
// recency rank; fill into the first invalid way, else evict the
// oldest rank). It is written independently of l1TLB's MRU-ordered
// layout so that the two cannot share a bug.
type ageTLB struct {
	ways  int
	mask  uint64
	vpn   []uint64
	ppn   []uint64
	valid []bool
	age   []int
	stats tlb.Stats
}

func newAgeTLB(cfg tlb.Config) *ageTLB {
	sets := cfg.Entries / cfg.Ways
	t := &ageTLB{
		ways:  cfg.Ways,
		mask:  uint64(sets - 1),
		vpn:   make([]uint64, cfg.Entries),
		ppn:   make([]uint64, cfg.Entries),
		valid: make([]bool, cfg.Entries),
		age:   make([]int, cfg.Entries),
	}
	for i := range t.age {
		t.age[i] = i % cfg.Ways
	}
	return t
}

func (t *ageTLB) touch(base, way int) {
	p := t.age[base+way]
	for w := 0; w < t.ways; w++ {
		if t.age[base+w] < p {
			t.age[base+w]++
		}
	}
	t.age[base+way] = 0
}

func (t *ageTLB) lookup(vpn uint64) (uint64, bool) {
	t.stats.Accesses++
	base := int(vpn&t.mask) * t.ways
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.vpn[base+w] == vpn {
			t.stats.Hits++
			t.touch(base, w)
			return t.ppn[base+w], true
		}
	}
	t.stats.Misses++
	return 0, false
}

func (t *ageTLB) insert(vpn, ppn uint64) (evicted bool, evictedVPN uint64) {
	t.stats.Inserts++
	base := int(vpn&t.mask) * t.ways
	victim := -1
	for w := 0; w < t.ways && victim < 0; w++ {
		if !t.valid[base+w] {
			victim = w
		}
	}
	if victim < 0 {
		for w := 0; w < t.ways; w++ {
			if victim < 0 || t.age[base+w] > t.age[base+victim] {
				victim = w
			}
		}
		t.stats.Evictions++
		evicted, evictedVPN = true, t.vpn[base+victim]
	}
	t.vpn[base+victim], t.ppn[base+victim], t.valid[base+victim] = vpn, ppn, true
	t.touch(base, victim)
	return evicted, evictedVPN
}

// l1Checker drives an l1TLB, the age-counter model and a tlb.TLB under
// policy.LRU (the L1 structure the machine ran before l1TLB) with one
// VPN stream, taking each miss's frame from a paging.Space, and fails
// at the first access where they disagree.
type l1Checker struct {
	t     *testing.T
	got   *l1TLB
	age   *ageTLB
	lru   *tlb.TLB
	space *paging.Space
	n     int
}

func newL1Checker(t *testing.T, cfg tlb.Config) *l1Checker {
	got, err := newL1TLB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lru, err := tlb.New(cfg, policy.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lru.Release)
	return &l1Checker{t: t, got: got, age: newAgeTLB(cfg), lru: lru, space: paging.NewSpace()}
}

func (c *l1Checker) access(vpn uint64) {
	c.t.Helper()
	c.n++
	ppn, hit := c.got.lookup(vpn)
	agePPN, ageHit := c.age.lookup(vpn)
	a := tlb.Access{VPN: vpn}
	lruPPN, lruHit := c.lru.Lookup(&a)
	if hit != ageHit || ppn != agePPN || hit != lruHit || ppn != lruPPN {
		c.t.Fatalf("access %d (vpn %#x): l1TLB (%#x, %v), age model (%#x, %v), tlb.TLB (%#x, %v)", c.n, vpn, ppn, hit, agePPN, ageHit, lruPPN, lruHit)
	}
	if hit {
		return
	}
	frame, _ := c.space.Translate(vpn)
	ev, evVPN := c.got.insert(vpn, frame)
	ageEv, ageVPN := c.age.insert(vpn, frame)
	lruEv, lruVPN := c.lru.Insert(&a, frame)
	if ev != ageEv || evVPN != ageVPN || ev != lruEv || evVPN != lruVPN {
		c.t.Fatalf("access %d (vpn %#x): l1TLB evicted (%v, %#x), age model (%v, %#x), tlb.TLB (%v, %#x)", c.n, vpn, ev, evVPN, ageEv, ageVPN, lruEv, lruVPN)
	}
}

// check compares the counters at the end of the stream.
func (c *l1Checker) check() {
	c.t.Helper()
	type counts struct{ accesses, hits, misses, inserts, evictions uint64 }
	of := func(s tlb.Stats) counts { return counts{s.Accesses, s.Hits, s.Misses, s.Inserts, s.Evictions} }
	got, age, lru := of(c.got.stats), of(c.age.stats), of(c.lru.Stats())
	if got != age || got != lru {
		c.t.Errorf("after %d accesses: l1TLB %+v, age model %+v, tlb.TLB %+v", c.n, got, age, lru)
	}
}

// splitmix is a deterministic 64-bit generator for the VPN streams.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// TestL1TLBMatchesAgeLRUOracle: over seeded VPN streams mixing uniform
// pages over a footprint four times the capacity, a hot set that
// mostly fits, and cyclic and reversed runs of ways+k pages in one set
// (which LRU evicts just before each reuse), on geometries from
// direct-mapped to fully associative, l1TLB agrees with the age-counter
// model and with tlb.TLB under policy.LRU on every hit or miss, every
// frame returned, every eviction and the final counters.
func TestL1TLBMatchesAgeLRUOracle(t *testing.T) {
	geometries := []tlb.Config{
		{Name: "1-way", Entries: 16, Ways: 1, PageShift: 12},
		{Name: "2-way", Entries: 32, Ways: 2, PageShift: 12},
		{Name: "8-way", Entries: 64, Ways: 8, PageShift: 12},
		{Name: "16-way", Entries: 64, Ways: 16, PageShift: 12},
		{Name: "full-64", Entries: 64, Ways: 64, PageShift: 12},
	}
	for _, cfg := range geometries {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.Name, seed), func(t *testing.T) {
				c := newL1Checker(t, cfg)
				rng := splitmix(seed)
				sets := uint64(cfg.Entries / cfg.Ways)
				for c.n < 20_000 {
					switch rng.next() % 4 {
					case 0:
						for i := 0; i < 64; i++ {
							c.access(rng.next() % uint64(4*cfg.Entries))
						}
					case 1:
						for i := 0; i < 64; i++ {
							c.access(rng.next() % uint64(cfg.Entries/2))
						}
					default:
						set := rng.next() % sets
						k := uint64(cfg.Ways) + rng.next()%3
						reverse := rng.next()%2 == 0
						for rep := 0; rep < 4; rep++ {
							for i := uint64(0); i < k; i++ {
								j := i
								if reverse && rep%2 == 1 {
									j = k - 1 - i
								}
								c.access(j*sets + set)
							}
						}
					}
				}
				c.check()
			})
		}
	}
}

// TestL1TLBMatchesAgeLRUOracleOnTrace: the same three-way agreement on
// db-000's records, the iTLB fed every fetch and the dTLB every memory
// access, as the machine feeds them.
func TestL1TLBMatchesAgeLRUOracleOnTrace(t *testing.T) {
	cfg := DefaultConfig(400_000, 150)
	itlb, dtlb := newL1Checker(t, cfg.L1ITLB), newL1Checker(t, cfg.L1DTLB)
	src := trace.NewLimit(workloads.ByName("db-000").Source(), cfg.Instructions)
	shift := cfg.L2TLB.PageShift
	var rec trace.Record
	for src.Next(&rec) {
		itlb.access(rec.PC >> shift)
		if rec.Class.IsMemory() {
			dtlb.access(rec.EA >> shift)
		}
	}
	itlb.check()
	dtlb.check()
	if itlb.got.stats.Evictions+dtlb.got.stats.Evictions == 0 {
		t.Error("the trace evicted nothing; the check is vacuous")
	}
}
