// Package mem models the cache hierarchy of Table II: L1 instruction
// and data caches, a unified L2, a unified L3, and DRAM, all as
// set-associative write-allocate caches with LRU replacement and
// fixed per-level latencies. The model is timing-approximate in the
// paper's sense: each access returns the latency of the level that
// served it; misses recurse into the next level.
package mem

import (
	"fmt"
	"math/bits"

	"github.com/chirplab/chirp/internal/lru"
)

// Config describes one cache level.
type Config struct {
	// Name labels the cache in reports.
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size (64 in Table II's machine).
	LineBytes int
	// Ways is the associativity.
	Ways int
	// LatencyCycles is the access (hit) latency.
	LatencyCycles uint64
}

// Validate checks the geometry.
func (c *Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem %q: size, line and ways must be positive", c.Name)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("mem %q: size %d not divisible by line×ways", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem %q: set count %d not a power of two", c.Name, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// Stats counts per-level activity.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// Cache is one set-associative, LRU-replaced cache level. Its lines
// are an lru.Sets, whose doc comment gives the layout and why it is
// exact.
type Cache struct {
	cfg       Config
	setMask   uint64
	lineShift uint
	tagShift  uint // log2(sets): line bits above the set index
	lines     lru.Sets[struct{}]
	stats     Stats
	next      Level
}

// Level is anything that can serve an access and report its latency:
// another cache, or Memory.
type Level interface {
	// Access reads or writes the line containing addr, returning the
	// total latency in cycles including lower levels.
	Access(addr uint64, write bool) uint64
	// Name labels the level.
	Name() string
}

// NewCache builds a cache over the given next level.
func NewCache(cfg Config, next Level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("mem %q: nil next level", cfg.Name)
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	lineShift := uint(0)
	for 1<<lineShift < cfg.LineBytes {
		lineShift++
	}
	return &Cache{
		cfg:       cfg,
		setMask:   uint64(sets - 1),
		lineShift: lineShift,
		tagShift:  uint(bits.TrailingZeros(uint(sets))),
		lines:     lru.New[struct{}](sets, cfg.Ways),
		next:      next,
	}, nil
}

// Name implements Level.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access implements Level: LRU write-allocate lookup. A hit moves the
// line to the front of its set; a miss recurses into the next level
// and fills at the front, the LRU tail falling off a full set.
//
//chirp:hotpath
func (c *Cache) Access(addr uint64, write bool) uint64 {
	c.stats.Accesses++
	line := addr >> c.lineShift
	set, tag := line&c.setMask, line>>c.tagShift
	if c.lines.Lookup(set, tag) != nil {
		c.stats.Hits++
		return c.cfg.LatencyCycles
	}
	c.stats.Misses++
	lower := c.next.Access(addr, write)
	c.lines.Fill(set, tag, struct{}{})
	return c.cfg.LatencyCycles + lower
}

// Memory is the DRAM terminal level with a flat latency.
type Memory struct {
	Latency  uint64
	accesses uint64
}

// NewMemory returns DRAM with the given flat latency (240 cycles in
// Table II).
func NewMemory(latency uint64) *Memory { return &Memory{Latency: latency} }

// Name implements Level.
func (*Memory) Name() string { return "DRAM" }

// Access implements Level.
func (m *Memory) Access(uint64, bool) uint64 {
	m.accesses++
	return m.Latency
}

// Accesses returns how many requests reached DRAM.
func (m *Memory) Accesses() uint64 { return m.accesses }

// Hierarchy bundles the Table II cache stack.
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	L3   *Cache
	DRAM *Memory
}

// HierarchyConfig parameterises NewHierarchy; DefaultHierarchyConfig
// is Table II.
type HierarchyConfig struct {
	L1I, L1D, L2, L3 Config
	DRAMLatency      uint64
}

// DefaultHierarchyConfig returns Table II: 64 KB 8-way L1s (4 cycles),
// 256 KB 16-way L2 (12 cycles), 8 MB 16-way L3 (42 cycles), 240-cycle
// DRAM, 64-byte lines.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:         Config{Name: "L1I", SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 4},
		L1D:         Config{Name: "L1D", SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 4},
		L2:          Config{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 16, LatencyCycles: 12},
		L3:          Config{Name: "L3", SizeBytes: 8 << 20, LineBytes: 64, Ways: 16, LatencyCycles: 42},
		DRAMLatency: 240,
	}
}

// NewHierarchy assembles the cache stack.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	dram := NewMemory(cfg.DRAMLatency)
	l3, err := NewCache(cfg.L3, dram)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(cfg.L2, l3)
	if err != nil {
		return nil, err
	}
	l1i, err := NewCache(cfg.L1I, l2)
	if err != nil {
		return nil, err
	}
	l1d, err := NewCache(cfg.L1D, l2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, L3: l3, DRAM: dram}, nil
}

// FetchLatency serves an instruction fetch from physical address pa.
func (h *Hierarchy) FetchLatency(pa uint64) uint64 { return h.L1I.Access(pa, false) }

// DataLatency serves a load or store from physical address pa.
func (h *Hierarchy) DataLatency(pa uint64, write bool) uint64 { return h.L1D.Access(pa, write) }
