package mem

import (
	"fmt"
	"testing"
)

// ageCache is the test-only reference model of a cache level: the
// age-counter true-LRU design (a per-way valid bit and recency rank,
// fill into the first invalid way, else evict the oldest rank) that
// Cache must reproduce access for access. It is written independently
// of Cache's layout so that the two cannot share a bug.
type ageCache struct {
	ways               int
	latency            uint64
	setMask, lineShift uint64
	tagShift           uint
	tags               []uint64
	valid              []bool
	age                []int
	stats              Stats
	next               Level
}

func newAgeCache(cfg Config, next Level) *ageCache {
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &ageCache{
		ways:    cfg.Ways,
		latency: cfg.LatencyCycles,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*cfg.Ways),
		valid:   make([]bool, sets*cfg.Ways),
		age:     make([]int, sets*cfg.Ways),
		next:    next,
	}
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	for 1<<c.tagShift < sets {
		c.tagShift++
	}
	for i := range c.age {
		c.age[i] = i % cfg.Ways
	}
	return c
}

func (c *ageCache) Name() string { return "ref" }

func (c *ageCache) touch(base, way int) {
	p := c.age[base+way]
	for w := 0; w < c.ways; w++ {
		if c.age[base+w] < p {
			c.age[base+w]++
		}
	}
	c.age[base+way] = 0
}

func (c *ageCache) Access(addr uint64, write bool) uint64 {
	c.stats.Accesses++
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	tag := line >> c.tagShift
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.stats.Hits++
			c.touch(base, w)
			return c.latency
		}
	}
	c.stats.Misses++
	lower := c.next.Access(addr, write)
	victim := -1
	for w := 0; w < c.ways && victim < 0; w++ {
		if !c.valid[base+w] {
			victim = w
		}
	}
	if victim < 0 {
		for w := 0; w < c.ways; w++ {
			if victim < 0 || c.age[base+w] > c.age[base+victim] {
				victim = w
			}
		}
	}
	c.tags[base+victim], c.valid[base+victim] = tag, true
	c.touch(base, victim)
	return c.latency + lower
}

// splitmix is a deterministic 64-bit generator for the address streams.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// oracleStream returns a seeded address stream mixing three patterns:
// uniform addresses over a footprint several times the cache, a hot
// region that mostly fits, and set-thrashing runs of ways+1 (or more)
// lines that all map to one set, replayed in cyclic and reversed order
// so that LRU evicts every line just before its reuse.
func oracleStream(cfg Config, seed uint64, n int) []uint64 {
	rng := splitmix(seed)
	sets := uint64(cfg.SizeBytes / (cfg.LineBytes * cfg.Ways))
	line := uint64(cfg.LineBytes)
	footprint := uint64(cfg.SizeBytes) * 4
	out := make([]uint64, 0, n)
	for len(out) < n {
		switch rng.next() % 4 {
		case 0: // uniform over a footprint 4× the capacity
			for i := 0; i < 64; i++ {
				out = append(out, rng.next()%footprint)
			}
		case 1: // hot region of half the capacity
			for i := 0; i < 64; i++ {
				out = append(out, rng.next()%(uint64(cfg.SizeBytes)/2))
			}
		default: // thrash one set with ways+k conflicting lines
			set := rng.next() % sets
			k := uint64(cfg.Ways) + rng.next()%3
			reverse := rng.next()%2 == 0
			for rep := 0; rep < 4; rep++ {
				for i := uint64(0); i < k; i++ {
					j := i
					if reverse && rep%2 == 1 {
						j = k - 1 - i
					}
					out = append(out, (j*sets+set)*line+rng.next()%line)
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

// TestCacheMatchesAgeLRUOracle drives Cache and the age-counter
// reference with the same seeded streams, one level over DRAM, and
// requires identical per-access latency, Stats and DRAM traffic.
func TestCacheMatchesAgeLRUOracle(t *testing.T) {
	for _, cfg := range oracleGeometries() {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.Name, seed), func(t *testing.T) {
				dram, refDRAM := NewMemory(100), NewMemory(100)
				c, err := NewCache(cfg, dram)
				if err != nil {
					t.Fatal(err)
				}
				ref := newAgeCache(cfg, refDRAM)
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
// every level's counters with the same chain built from the oracle.
func TestHierarchyMatchesAgeLRUOracle(t *testing.T) {
	cfg := HierarchyConfig{
		L1I:         Config{Name: "L1I", SizeBytes: 2 << 10, LineBytes: 64, Ways: 2, LatencyCycles: 4},
		L1D:         Config{Name: "L1D", SizeBytes: 4 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 4},
		L2:          Config{Name: "L2", SizeBytes: 16 << 10, LineBytes: 64, Ways: 16, LatencyCycles: 12},
		L3:          Config{Name: "L3", SizeBytes: 32 << 10, LineBytes: 64, Ways: 256, LatencyCycles: 42},
		DRAMLatency: 240,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refDRAM := NewMemory(cfg.DRAMLatency)
	refL3 := newAgeCache(cfg.L3, refDRAM)
	refL2 := newAgeCache(cfg.L2, refL3)
	refL1I, refL1D := newAgeCache(cfg.L1I, refL2), newAgeCache(cfg.L1D, refL2)

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
		want *ageCache
	}{{h.L1I, refL1I}, {h.L1D, refL1D}, {h.L2, refL2}, {h.L3, refL3}} {
		if lv.got.Stats() != lv.want.stats {
			t.Errorf("%s stats %+v, oracle %+v", lv.got.Name(), lv.got.Stats(), lv.want.stats)
		}
	}
	if h.DRAM.Accesses() != refDRAM.Accesses() {
		t.Errorf("DRAM accesses %d, oracle %d", h.DRAM.Accesses(), refDRAM.Accesses())
	}
}
