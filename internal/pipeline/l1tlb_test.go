package pipeline

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/chirplab/chirp/internal/paging"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// l1Checker drives an l1TLB and a tlb.TLB under policy.LRU (the L1
// structure the direct reference path runs, an age-counter true LRU)
// with one VPN stream, taking each miss's frame from a paging.Space,
// and fails at the first access where they disagree.
type l1Checker struct {
	t     *testing.T
	got   *l1TLB
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
	return &l1Checker{t: t, got: got, lru: lru, space: paging.NewSpace()}
}

func (c *l1Checker) access(vpn uint64) {
	c.t.Helper()
	c.n++
	ppn, hit := c.got.lookup(vpn)
	a := tlb.Access{VPN: vpn}
	lruPPN, lruHit := c.lru.Lookup(&a)
	if hit != lruHit || ppn != lruPPN {
		c.t.Fatalf("access %d (vpn %#x): l1TLB (%#x, %v), tlb.TLB (%#x, %v)", c.n, vpn, ppn, hit, lruPPN, lruHit)
	}
	if hit {
		return
	}
	frame, _ := c.space.Translate(vpn)
	ev, evVPN := c.got.insert(vpn, frame)
	lruEv, lruVPN := c.lru.Insert(&a, frame)
	if ev != lruEv || evVPN != lruVPN {
		c.t.Fatalf("access %d (vpn %#x): l1TLB evicted (%v, %#x), tlb.TLB (%v, %#x)", c.n, vpn, ev, evVPN, lruEv, lruVPN)
	}
}

// check compares the counters at the end of the stream.
func (c *l1Checker) check() {
	c.t.Helper()
	type counts struct{ accesses, hits, misses, inserts, evictions uint64 }
	of := func(s tlb.Stats) counts { return counts{s.Accesses, s.Hits, s.Misses, s.Inserts, s.Evictions} }
	if got, lru := of(c.got.stats), of(c.lru.Stats()); got != lru {
		c.t.Errorf("after %d accesses: l1TLB %+v, tlb.TLB %+v", c.n, got, lru)
	}
}

// TestL1TLBMatchesAgeLRUOracle: over seeded VPN streams mixing uniform
// pages over a footprint four times the capacity, a hot set that
// mostly fits, and cyclic and reversed runs of ways+k pages in one set
// (which LRU evicts just before each reuse), on geometries from
// direct-mapped to fully associative, l1TLB agrees with tlb.TLB under
// policy.LRU on every hit or miss, every frame returned, every eviction
// and the final counters.
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
				rng := rand.New(rand.NewPCG(seed, 0))
				sets := uint64(cfg.Entries / cfg.Ways)
				for c.n < 20_000 {
					switch rng.IntN(4) {
					case 0:
						for range 64 {
							c.access(rng.Uint64N(uint64(4 * cfg.Entries)))
						}
					case 1:
						for range 64 {
							c.access(rng.Uint64N(uint64(cfg.Entries / 2)))
						}
					default:
						set, k, reverse := rng.Uint64N(sets), uint64(cfg.Ways+rng.IntN(3)), rng.IntN(2) == 0
						for rep := range 4 {
							for i := range k {
								if reverse && rep%2 == 1 {
									i = k - 1 - i
								}
								c.access(i*sets + set)
							}
						}
					}
				}
				c.check()
			})
		}
	}
}

// TestL1TLBMatchesAgeLRUOracleOnTrace: the same agreement on
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
