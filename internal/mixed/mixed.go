// Package mixed implements the paper's stated future work (§VIII):
// TLB replacement with mixed page sizes. Modern L2 TLBs hold 4 KB and
// 2 MB entries in the same structure; replacement is then no longer a
// pure Bélády problem because entries have different *costs* — a 2 MB
// entry covers 512× the reach of a 4 KB entry (§V: "imagine, when one
// entry covers 4KB and another covers 2MB, which one is more important
// to keep?").
//
// The model: one unified set-associative array in which each entry
// records its page size. A lookup probes two sets — the set indexed by
// the 4 KB VPN and the set indexed by the 2 MB VPN — as
// dual-probe hardware designs do. Policies receive the page size with
// every access; CostAware wraps CHiRP's dead-entry machinery with a
// size-aware victim order (dead 4 KB → dead 2 MB → LRU 4 KB-first).
package mixed

import (
	"fmt"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/tlb"
)

// PageShift4K and PageShift2M are the two supported page sizes.
const (
	PageShift4K = 12
	PageShift2M = 21
	// span2M is how many 4 KB pages a 2 MB entry covers.
	span2M = 1 << (PageShift2M - PageShift4K)
)

// Size identifies an entry's page size.
type Size uint8

const (
	// Size4K is a base 4 KB page.
	Size4K Size = iota
	// Size2M is a 2 MB superpage.
	Size2M
)

// String returns "4K" or "2M".
func (s Size) String() string {
	if s == Size2M {
		return "2M"
	}
	return "4K"
}

// Access is one mixed-size lookup. VPN4K is always the 4 KB-granular
// virtual page number; Size is the size of the mapping that backs it.
type Access struct {
	PC    uint64
	VPN4K uint64
	Size  Size
}

// Policy makes replacement decisions for the mixed TLB. The contract
// mirrors tlb.Policy with the page size added.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Attach sizes metadata.
	Attach(sets, ways int)
	// OnAccess observes every lookup.
	OnAccess(a *Access)
	// OnHit is called when (set, way) hit.
	OnHit(set uint32, way int, a *Access)
	// Victim picks the way to evict in set for an insertion of size
	// a.Size.
	Victim(set uint32, a *Access) int
	// OnInsert is called after the fill of (set, way).
	OnInsert(set uint32, way int, a *Access)
}

// Stats counts mixed-TLB activity, split by page size.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Misses4K  uint64
	Misses2M  uint64
	Evicted4K uint64
	Evicted2M uint64
	// ReachLostPages accumulates the 4 KB-page reach of evicted live
	// entries — the cost-aware metric (evicting a 2 MB entry loses
	// 512 pages of reach).
	ReachLostPages uint64
}

type entry struct {
	key   uint64 // VPN at the entry's own granularity
	size  Size
	valid bool
	used  bool // hit at least once since fill (for reach-loss accounting)
}

// TLB is the unified mixed-page-size L2 TLB.
type TLB struct {
	sets    int
	ways    int
	setMask uint64
	entries []entry
	policy  Policy
	stats   Stats
}

// New builds a mixed TLB with entries total entries.
func New(entries, ways int, p Policy) (*TLB, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("mixed: entries (%d) must be a positive multiple of ways (%d)", entries, ways)
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mixed: set count %d not a power of two", sets)
	}
	if p == nil {
		return nil, fmt.Errorf("mixed: nil policy")
	}
	t := &TLB{sets: sets, ways: ways, setMask: uint64(sets - 1), entries: make([]entry, entries), policy: p}
	p.Attach(sets, ways)
	return t, nil
}

// setFor returns the set an entry of the given size and 4 KB VPN
// lives in, and the tag key stored there.
func (t *TLB) setFor(vpn4k uint64, size Size) (set uint32, key uint64) {
	if size == Size2M {
		key = vpn4k >> (PageShift2M - PageShift4K)
		return uint32(key & t.setMask), key
	}
	return uint32(vpn4k & t.setMask), vpn4k
}

// Lookup probes both the 4 KB-indexed and 2 MB-indexed sets.
func (t *TLB) Lookup(a *Access) bool {
	t.stats.Accesses++
	t.policy.OnAccess(a)
	// Probe the mapping's own size first, then the other (hardware
	// probes both in parallel; order is unobservable).
	for _, size := range [2]Size{a.Size, 1 - a.Size} {
		set, key := t.setFor(a.VPN4K, size)
		base := int(set) * t.ways
		for w := 0; w < t.ways; w++ {
			e := &t.entries[base+w]
			if e.valid && e.size == size && e.key == key {
				t.stats.Hits++
				e.used = true
				t.policy.OnHit(set, w, a)
				return true
			}
		}
	}
	t.stats.Misses++
	if a.Size == Size2M {
		t.stats.Misses2M++
	} else {
		t.stats.Misses4K++
	}
	return false
}

// Insert fills the translation for a missing Lookup.
func (t *TLB) Insert(a *Access) {
	set, key := t.setFor(a.VPN4K, a.Size)
	base := int(set) * t.ways
	way := -1
	for w := 0; w < t.ways; w++ {
		if !t.entries[base+w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = t.policy.Victim(set, a)
		if way < 0 || way >= t.ways {
			panic(fmt.Sprintf("mixed: policy %s returned invalid way %d", t.policy.Name(), way))
		}
		e := &t.entries[base+way]
		if e.size == Size2M {
			t.stats.Evicted2M++
			if e.used {
				t.stats.ReachLostPages += span2M
			}
		} else {
			t.stats.Evicted4K++
			if e.used {
				t.stats.ReachLostPages++
			}
		}
	}
	e := &t.entries[base+way]
	e.key, e.size, e.valid, e.used = key, a.Size, true, false
	t.policy.OnInsert(set, way, a)
}

// EntrySize reports the size of the entry at (set, way); policies use
// it for cost-aware decisions.
func (t *TLB) EntrySize(set uint32, way int) Size {
	return t.entries[int(set)*t.ways+way].size
}

// Stats returns a snapshot.
func (t *TLB) Stats() Stats { return t.stats }

// Sets returns the set count.
func (t *TLB) Sets() int { return t.sets }

// sizeProbe lets policies learn entry sizes without a back-pointer;
// the TLB installs itself into policies implementing it.
type sizeProbe interface {
	setTLB(t *TLB)
}

// AttachTLB wires the TLB into policies that need to inspect entry
// sizes (CostAware). Call after New.
func AttachTLB(t *TLB) {
	if sp, ok := t.policy.(sizeProbe); ok {
		sp.setTLB(t)
	}
}

// LRUPolicy is plain recency replacement for the mixed TLB.
type LRUPolicy struct {
	rec *tlb.Recency
}

// NewLRU returns mixed-size LRU.
func NewLRU() *LRUPolicy { return &LRUPolicy{} }

// Name implements Policy.
func (*LRUPolicy) Name() string { return "mixed-lru" }

// Attach implements Policy.
func (p *LRUPolicy) Attach(sets, ways int) { p.rec = tlb.NewRecency(sets, ways) }

// OnAccess implements Policy.
func (*LRUPolicy) OnAccess(*Access) {}

// OnHit implements Policy.
func (p *LRUPolicy) OnHit(set uint32, way int, _ *Access) { p.rec.Touch(set, way) }

// Victim implements Policy.
func (p *LRUPolicy) Victim(set uint32, _ *Access) int { return p.rec.LRU(set) }

// OnInsert implements Policy.
func (p *LRUPolicy) OnInsert(set uint32, way int, _ *Access) { p.rec.Touch(set, way) }

// CostAware is CHiRP's machinery with a size-aware victim order: dead
// 4 KB entries are evicted before dead 2 MB entries, because a wrong
// eviction costs 512× more reach for a superpage; LRU breaks the tie
// when nothing is predicted dead, again preferring 4 KB entries unless
// the 2 MB entry is clearly colder.
type CostAware struct {
	inner *core.CHiRP
	t     *TLB
	ways  int
	rec   *tlb.Recency
}

// NewCostAware wraps a CHiRP configuration with size-aware victim
// selection.
func NewCostAware(cfg core.Config) (*CostAware, error) {
	inner, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &CostAware{inner: inner}, nil
}

// Name implements Policy.
func (*CostAware) Name() string { return "mixed-chirp-costaware" }

func (p *CostAware) setTLB(t *TLB) { p.t = t }

// Attach implements Policy.
func (p *CostAware) Attach(sets, ways int) {
	p.inner.Attach(sets, ways)
	p.ways = ways
	p.rec = tlb.NewRecency(sets, ways)
}

// OnBranch forwards the branch stream to CHiRP's histories.
func (p *CostAware) OnBranch(pc uint64, conditional, indirect, taken bool, target uint64) {
	p.inner.OnBranch(pc, conditional, indirect, taken, target)
}

func toTLBAccess(a *Access) *tlb.Access {
	return &tlb.Access{PC: a.PC, VPN: a.VPN4K}
}

// OnAccess implements Policy.
func (p *CostAware) OnAccess(a *Access) {
	ta := toTLBAccess(a)
	ta.Set = 0 // same-set suppression is not meaningful across dual probes
	p.inner.OnAccess(ta)
}

// OnHit implements Policy.
func (p *CostAware) OnHit(set uint32, way int, a *Access) {
	p.rec.Touch(set, way)
	p.inner.OnHit(set, way, toTLBAccess(a))
}

// Victim implements Policy: dead 4 KB first, then dead 2 MB, then LRU
// with a 4 KB preference among the two least-recent entries.
func (p *CostAware) Victim(set uint32, a *Access) int {
	dead4, dead2 := -1, -1
	for w := 0; w < p.ways; w++ {
		if !p.inner.DeadMarked(set, w) {
			continue
		}
		if p.t != nil && p.t.EntrySize(set, w) == Size2M {
			if dead2 < 0 {
				dead2 = w
			}
		} else if dead4 < 0 {
			dead4 = w
		}
	}
	switch {
	case dead4 >= 0:
		return dead4
	case dead2 >= 0:
		return dead2
	}
	// LRU fallback, preferring a 4 KB entry among the two deepest.
	way := p.rec.LRU(set)
	if p.t != nil && p.t.EntrySize(set, way) == Size2M {
		second, pos := -1, -1
		for w := 0; w < p.ways; w++ {
			if w == way || (p.t != nil && p.t.EntrySize(set, w) == Size2M) {
				continue
			}
			if pp := p.rec.Position(set, w); pp > pos {
				second, pos = w, pp
			}
		}
		if second >= 0 && pos >= p.ways-2 {
			way = second
		}
	}
	p.inner.TrainVictimDead(set, way)
	return way
}

// OnInsert implements Policy.
func (p *CostAware) OnInsert(set uint32, way int, a *Access) {
	p.rec.Touch(set, way)
	p.inner.OnInsert(set, way, toTLBAccess(a))
}
