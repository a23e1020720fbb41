package mem

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"

	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
)

// lruLevel is the reference cache level: a tlb.TLB under policy.LRU
// (the direct reference path's L1 model, written independently of
// lru.Sets) holding line numbers, with Cache's latency recursion and
// counters. Its sets are indexed by a line's low bits, as Cache's are.
type lruLevel struct {
	lines     *tlb.TLB
	lineShift uint
	latency   uint64
	stats     Stats
	next      Level
}

func newLRULevel(t *testing.T, cfg Config, next Level) *lruLevel {
	t.Helper()
	lines, err := tlb.New(tlb.Config{Name: cfg.Name, Entries: cfg.SizeBytes / cfg.LineBytes, Ways: cfg.Ways, PageShift: 12}, policy.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lines.Release)
	return &lruLevel{lines: lines, lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))), latency: cfg.LatencyCycles, next: next}
}

func (c *lruLevel) Name() string { return "ref" }

func (c *lruLevel) Access(addr uint64, write bool) uint64 {
	c.stats.Accesses++
	a := tlb.Access{VPN: addr >> c.lineShift}
	if _, hit := c.lines.Lookup(&a); hit {
		c.stats.Hits++
		return c.latency
	}
	c.stats.Misses++
	lower := c.next.Access(addr, write)
	c.lines.Insert(&a, 0)
	return c.latency + lower
}

// oracleStream returns a seeded address stream mixing three patterns:
// uniform addresses over a footprint several times the cache, a hot
// region that mostly fits, and set-thrashing runs of ways+1 (or more)
// lines that all map to one set, replayed in cyclic and reversed order
// so that LRU evicts every line just before its reuse.
func oracleStream(cfg Config, seed uint64, n int) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0))
	sets := uint64(cfg.SizeBytes / (cfg.LineBytes * cfg.Ways))
	line := uint64(cfg.LineBytes)
	footprint := uint64(cfg.SizeBytes) * 4
	out := make([]uint64, 0, n)
	for len(out) < n {
		switch rng.IntN(4) {
		case 0: // uniform over a footprint 4× the capacity
			for range 64 {
				out = append(out, rng.Uint64N(footprint))
			}
		case 1: // hot region of half the capacity
			for range 64 {
				out = append(out, rng.Uint64N(uint64(cfg.SizeBytes)/2))
			}
		default: // thrash one set with ways+k conflicting lines
			set, k, reverse := rng.Uint64N(sets), uint64(cfg.Ways+rng.IntN(3)), rng.IntN(2) == 0
			for rep := range 4 {
				for i := range k {
					if reverse && rep%2 == 1 {
						i = k - 1 - i
					}
					out = append(out, (i*sets+set)*line+rng.Uint64N(line))
				}
			}
		}
	}
	return out[:n]
}

// oracleGeometries covers direct-mapped through fully associative.
func oracleGeometries() []Config {
	return []Config{
		{Name: "1-way", SizeBytes: 64 * 64, LineBytes: 64, Ways: 1, LatencyCycles: 3},
		{Name: "2-way", SizeBytes: 32 * 2 * 64, LineBytes: 64, Ways: 2, LatencyCycles: 3},
		{Name: "8-way", SizeBytes: 16 * 8 * 64, LineBytes: 64, Ways: 8, LatencyCycles: 3},
		{Name: "16-way", SizeBytes: 8 * 16 * 32, LineBytes: 32, Ways: 16, LatencyCycles: 3},
		{Name: "full-64", SizeBytes: 64 * 64, LineBytes: 64, Ways: 64, LatencyCycles: 3},
	}
}

// TestCacheMatchesAgeLRUOracle drives Cache and the tlb.TLB reference
// with the same seeded streams, one level over DRAM, and requires
// identical per-access latency, Stats and DRAM traffic.
func TestCacheMatchesAgeLRUOracle(t *testing.T) {
	for _, cfg := range oracleGeometries() {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.Name, seed), func(t *testing.T) {
				dram, refDRAM := NewMemory(100), NewMemory(100)
				c, err := NewCache(cfg, dram)
				if err != nil {
					t.Fatal(err)
				}
				ref := newLRULevel(t, cfg, refDRAM)
				for i, addr := range oracleStream(cfg, seed, 20_000) {
					write := i%5 == 0
					if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
						t.Fatalf("access %d (%#x): latency %d, oracle %d", i, addr, got, want)
					}
				}
				if c.Stats() != ref.stats {
					t.Errorf("stats %+v, oracle %+v", c.Stats(), ref.stats)
				}
				if dram.Accesses() != refDRAM.Accesses() {
					t.Errorf("DRAM accesses %d, oracle %d", dram.Accesses(), refDRAM.Accesses())
				}
			})
		}
	}
}

// TestHierarchyMatchesAgeLRUOracle chains L1I/L1D → L2 → L3 → DRAM in
// small geometries that evict at every level, interleaves fetch and
// data streams through the shared L2, and compares every latency and
// every level's counters with the same chain built from the reference.
// tlb.TLB takes at most 64 ways, so the L3 is 64-way; lru.Sets itself
// is checked at 256 ways by its own oracle test.
func TestHierarchyMatchesAgeLRUOracle(t *testing.T) {
	cfg := HierarchyConfig{
		L1I:         Config{Name: "L1I", SizeBytes: 2 << 10, LineBytes: 64, Ways: 2, LatencyCycles: 4},
		L1D:         Config{Name: "L1D", SizeBytes: 4 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 4},
		L2:          Config{Name: "L2", SizeBytes: 16 << 10, LineBytes: 64, Ways: 16, LatencyCycles: 12},
		L3:          Config{Name: "L3", SizeBytes: 32 << 10, LineBytes: 64, Ways: 64, LatencyCycles: 42},
		DRAMLatency: 240,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refDRAM := NewMemory(cfg.DRAMLatency)
	refL3 := newLRULevel(t, cfg.L3, refDRAM)
	refL2 := newLRULevel(t, cfg.L2, refL3)
	refL1I, refL1D := newLRULevel(t, cfg.L1I, refL2), newLRULevel(t, cfg.L1D, refL2)

	fetch := oracleStream(cfg.L2, 7, 40_000)
	data := oracleStream(cfg.L3, 8, 40_000)
	for i := range fetch {
		if got, want := h.FetchLatency(fetch[i]), refL1I.Access(fetch[i], false); got != want {
			t.Fatalf("fetch %d (%#x): latency %d, oracle %d", i, fetch[i], got, want)
		}
		write := i%3 == 0
		if got, want := h.DataLatency(data[i], write), refL1D.Access(data[i], write); got != want {
			t.Fatalf("data %d (%#x): latency %d, oracle %d", i, data[i], got, want)
		}
	}
	for _, lv := range []struct {
		got  *Cache
		want *lruLevel
	}{{h.L1I, refL1I}, {h.L1D, refL1D}, {h.L2, refL2}, {h.L3, refL3}} {
		if lv.got.Stats() != lv.want.stats {
			t.Errorf("%s stats %+v, oracle %+v", lv.got.Name(), lv.got.Stats(), lv.want.stats)
		}
	}
	if h.DRAM.Accesses() != refDRAM.Accesses() {
		t.Errorf("DRAM accesses %d, oracle %d", h.DRAM.Accesses(), refDRAM.Accesses())
	}
}
