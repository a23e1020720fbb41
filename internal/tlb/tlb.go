// Package tlb implements set-associative translation lookaside buffers
// with pluggable replacement policies and the live-time (efficiency)
// accounting the paper's Figure 1 uses.
//
// The TLB itself is policy-agnostic: it resolves hits and misses,
// prefers invalid ways on fills, and drives the Policy callbacks. All
// replacement intelligence — LRU, Random, SRRIP, SHiP, GHRP, CHiRP —
// lives behind the Policy interface in internal/policy and
// internal/core.
package tlb

import (
	"fmt"
	"math/bits"
	"sync"
)

// Access describes one lookup presented to a TLB and to its policy.
type Access struct {
	// PC is the address of the instruction performing the access: the
	// fetch PC for instruction-side accesses, the load/store PC for
	// data-side accesses.
	PC uint64
	// VPN is the virtual page number being translated.
	VPN uint64
	// Set is the set index, filled by the TLB before policy callbacks.
	Set uint32
	// ASID is the address-space identifier; entries only match within
	// their ASID, so consolidated workloads coexist without flushes.
	ASID uint16
	// Prefetch marks a fill issued by a prefetcher rather than a
	// demand access (see TLB.InsertPrefetch). PC then identifies the
	// access that triggered the prefetch, while VPN is the prefetched
	// page.
	Prefetch bool
}

// Policy makes replacement decisions for one TLB. Implementations own
// all of their per-entry metadata, sized at Attach time.
//
// For every lookup the TLB calls OnAccess first, then exactly one of:
//   - OnHit, when the lookup hits way w;
//   - OnInsert, after the missing translation is placed into way w
//     (preceded by Victim when no invalid way was available).
//
// Prefetch fills (TLB.InsertPrefetch) obey the same shape: OnAccess
// with the prefetch Access (Prefetch set, PC = triggering access, VPN
// = prefetched page) followed by OnInsert — never OnHit. Every
// OnInsert is therefore guaranteed a preceding OnAccess carrying the
// same Access, so policies that latch per-access state (signatures,
// set conditions) in OnAccess always tag the inserted entry against
// the access actually being filled, not leftovers from the previous
// demand access. Policies whose OnAccess trains demand-only state
// (history registers, recency latches) must check Access.Prefetch and
// skip that training for prefetch fills.
//
// Victim must return a way in [0, ways); the TLB evicts it.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Attach sizes the policy's metadata for a TLB geometry. It is
	// called exactly once before any other callback.
	Attach(sets, ways int)
	// OnAccess is called at the start of every lookup, before the
	// hit/miss outcome is known.
	OnAccess(a *Access)
	// OnHit is called when the lookup hit way.
	OnHit(set uint32, way int, a *Access)
	// Victim selects the way to evict for a miss in set when every way
	// holds a valid entry.
	Victim(set uint32, a *Access) int
	// OnInsert is called after the new translation is written to way.
	OnInsert(set uint32, way int, a *Access)
}

// BranchObserver is implemented by policies that consume the committed
// branch stream (GHRP, CHiRP). The simulation driver feeds every
// committed branch to the L2 TLB policy if it implements this.
type BranchObserver interface {
	// OnBranch observes one committed branch: its PC, whether it is
	// conditional, whether it is an indirect unconditional branch, its
	// outcome and its target.
	OnBranch(pc uint64, conditional, indirect, taken bool, target uint64)
}

// SignatureFed is implemented by predictive policies whose per-access
// signatures are pure functions of the event stream (CHiRP, GHRP).
// Replay drivers that have precomputed the signature sequence for a
// captured stream switch the policy into external-signature mode and
// feed each access's signatures instead of the policy maintaining its
// history registers event by event. In this mode the driver delivers
// no OnBranch calls; the policy must not read its own histories.
type SignatureFed interface {
	// BeginExternalSignatures switches the policy into fed mode for the
	// rest of its lifetime. Call before the first access.
	BeginExternalSignatures()
	// SetSignatures installs the signatures for the next access:
	// demand is used by the access itself (OnAccess/OnHit/OnInsert),
	// prefetch by any prefetch fills issued on behalf of that access
	// (whose signature may differ when the demand access itself
	// advanced a history). Policies truncate to their own width.
	SetSignatures(demand, prefetch uint64)
}

// PassiveOnAccess marks policies whose OnAccess body is empty — they
// keep no per-access state outside OnHit/OnInsert. The TLB elides the
// interface call on its hottest path for such policies. This is purely
// an optimization: a policy may only implement it if skipping OnAccess
// is behaviorally identical to calling it.
type PassiveOnAccess interface {
	// PassiveOnAccess is a marker; implementations leave it empty.
	PassiveOnAccess()
}

// TableAccounting is implemented by predictive policies that maintain
// prediction tables; it exposes the table traffic used by the paper's
// Figure 11 (accesses to prediction table / accesses to TLB).
type TableAccounting interface {
	// TableReads and TableWrites return cumulative prediction-table
	// read and write operations.
	TableAccesses() (reads, writes uint64)
}

// Config describes TLB geometry.
type Config struct {
	// Name labels the TLB in reports (e.g. "L2 TLB").
	Name string
	// Entries is the total entry count; it must be a positive multiple
	// of Ways, with Entries/Ways a power of two.
	Entries int
	// Ways is the associativity.
	Ways int
	// PageShift is log2 of the page size (12 for 4 KB pages).
	PageShift uint
}

// Validate checks the geometry.
func (c *Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 {
		return fmt.Errorf("tlb %q: entries (%d) and ways (%d) must be positive", c.Name, c.Entries, c.Ways)
	}
	if c.Ways > 64 {
		// The way scan keeps per-set valid bits in one uint64.
		return fmt.Errorf("tlb %q: associativity %d exceeds the 64-way limit", c.Name, c.Ways)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb %q: entries (%d) not a multiple of ways (%d)", c.Name, c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb %q: set count %d is not a power of two", c.Name, sets)
	}
	if c.PageShift == 0 || c.PageShift > 30 {
		return fmt.Errorf("tlb %q: implausible page shift %d", c.Name, c.PageShift)
	}
	return nil
}

// Stats accumulates per-TLB counters.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Inserts counts every fill (demand and prefetch); PrefetchInserts
	// is the prefetch subset.
	Inserts         uint64
	PrefetchInserts uint64
	liveTime        uint64 // Σ (lastHit − insert) over completed lifetimes
	residentTime    uint64 // Σ (evict − insert) over completed lifetimes
}

// MissRatio returns misses/accesses, or 0 when idle.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Efficiency returns the TLB-efficiency metric of Burger et al. as the
// paper applies it to TLB entries: the fraction of entry-resident time
// during which the entry was still live (i.e. would be referenced
// again before eviction). It is only meaningful after FlushAccounting.
func (s Stats) Efficiency() float64 {
	if s.residentTime == 0 {
		return 0
	}
	return float64(s.liveTime) / float64(s.residentTime)
}

// entry holds one translation. Validity is not stored here: the
// per-set bitmask (TLB.valid) and the packed tag array are the only
// authorities, which lets New reuse pooled entry arrays without
// zeroing them — a stale entry is unreachable until Insert overwrites
// it, because every read is gated on a tag match or a valid bit.
type entry struct {
	vpn     uint64
	ppn     uint64
	insert  uint64 // access-time of fill
	lastHit uint64 // access-time of most recent hit (== insert when never hit)
	asid    uint16
}

// tagFree marks an invalid way in the packed tag array. It can never
// collide with a real translation: VPNs are virtual addresses shifted
// right by PageShift, which Config.Validate bounds to at least 1, so
// the all-ones pattern is unreachable.
const tagFree = ^uint64(0)

// TLB is a set-associative translation buffer.
type TLB struct {
	cfg     Config
	policy  Policy
	sets    int
	ways    int
	setMask uint64
	entries []entry // sets × ways, row-major
	// tags mirrors entries' VPNs and valid mirrors their valid bits
	// (bit w of valid[s] covers way w of set s). Invalid ways hold
	// tagFree, so the way scan is a bare tag compare — one cache line
	// per 8-way probe, no valid-mask test per way — and touches an
	// entry only on a tag match. valid stays authoritative for the
	// insert free-way search and the accounting walks.
	tags  []uint64
	valid []uint64
	live  []uint16 // per-set valid-entry count; == ways means no invalid way
	stats Stats
	now   uint64 // monotonically increasing access time
	// observesAccess is false when the policy declared (via
	// PassiveOnAccess) that its OnAccess is a no-op, letting the lookup
	// and prefetch paths skip the interface call.
	observesAccess bool

	// published is the Stats state as of the last PublishMetrics call
	// (see obs.go); the difference is what the next publish emits.
	published Stats
}

// tlbArrays is the poolable backing store of one TLB. Replay sweeps
// build and drop a TLB per (workload, policy) pair; recycling the
// arrays avoids re-zeroing the entry table every time — safe because
// stale pooled entries are unreachable (see the entry doc comment).
type tlbArrays struct {
	entries []entry
	tags    []uint64
	valid   []uint64
	live    []uint16
}

// arrayPool is the free list Release pushes to and New pops from. It
// is not a sync.Pool: a sync.Pool drops its per-P structures at every
// GC and allocates them again on the next Put, so the allocation count
// of a run that releases its TLBs would depend on when the GC last
// ran. The list's backing array is allocated once at full capacity,
// so Release never allocates; a Release that finds it full leaves its
// arrays to the GC.
var arrayPool = struct {
	mu   sync.Mutex
	free []tlbArrays
}{free: make([]tlbArrays, 0, maxPooledArrays)}

// maxPooledArrays bounds the free list, which never shrinks: it is
// the most array sets the process keeps for reuse. A timing machine
// holds at most three TLBs (two L1s and an L2) and each replay worker
// one, so this covers many jobs' worth.
const maxPooledArrays = 64

// popArrays takes the most recently released arrays, if any.
func popArrays() (tlbArrays, bool) {
	arrayPool.mu.Lock()
	defer arrayPool.mu.Unlock()
	n := len(arrayPool.free)
	if n == 0 {
		return tlbArrays{}, false
	}
	ar := arrayPool.free[n-1]
	arrayPool.free[n-1] = tlbArrays{}
	arrayPool.free = arrayPool.free[:n-1]
	return ar, true
}

// New builds a TLB with the given geometry and policy. The policy is
// attached (metadata sized) before New returns.
//
//chirp:acquires tlbarrays
func New(cfg Config, p Policy) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("tlb %q: nil policy", cfg.Name)
	}
	sets := cfg.Entries / cfg.Ways
	t := &TLB{
		cfg:     cfg,
		policy:  p,
		sets:    sets,
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
	}
	if ar, ok := popArrays(); ok &&
		cap(ar.entries) >= cfg.Entries && cap(ar.tags) >= cfg.Entries &&
		cap(ar.valid) >= sets && cap(ar.live) >= sets {
		t.entries = ar.entries[:cfg.Entries]
		t.tags = ar.tags[:cfg.Entries]
		t.valid = ar.valid[:sets]
		t.live = ar.live[:sets]
		for i := range t.valid {
			t.valid[i] = 0
		}
		for i := range t.live {
			t.live[i] = 0
		}
	} else {
		// Too small (or empty pool): allocate fresh, drop the arena.
		t.entries = make([]entry, cfg.Entries)
		t.tags = make([]uint64, cfg.Entries)
		t.valid = make([]uint64, sets)
		t.live = make([]uint16, sets)
	}
	for i := range t.tags {
		t.tags[i] = tagFree
	}
	if _, passive := p.(PassiveOnAccess); !passive {
		t.observesAccess = true
	}
	p.Attach(sets, cfg.Ways)
	return t, nil
}

// Release returns the TLB's backing arrays to the internal pool for a
// future New to reuse. The TLB must not be touched afterwards. Calling
// it is optional — a TLB that simply goes out of scope just forgoes
// the reuse — and replay drivers call it once results are extracted.
//
//chirp:releases tlbarrays
func (t *TLB) Release() {
	if t.entries == nil {
		return
	}
	arrayPool.mu.Lock()
	if len(arrayPool.free) < cap(arrayPool.free) {
		arrayPool.free = append(arrayPool.free, tlbArrays{entries: t.entries, tags: t.tags, valid: t.valid, live: t.live})
	}
	arrayPool.mu.Unlock()
	t.entries, t.tags, t.valid, t.live = nil, nil, nil, nil
}

// Config returns the TLB's geometry.
func (t *TLB) Config() Config { return t.cfg }

// Policy returns the attached replacement policy.
func (t *TLB) Policy() Policy { return t.policy }

// Sets returns the number of sets.
func (t *TLB) Sets() int { return t.sets }

// SetIndex returns the set an access to vpn maps to.
//
//chirp:hotpath
func (t *TLB) SetIndex(vpn uint64) uint32 { return uint32(vpn & t.setMask) }

// Lookup probes the TLB for vpn. On a hit it returns the cached PPN.
// It never fills; pair with Insert on miss. The policy observes the
// access either way.
//
//chirp:hotpath
func (t *TLB) Lookup(a *Access) (ppn uint64, hit bool) {
	a.Set = t.SetIndex(a.VPN)
	t.now++
	t.stats.Accesses++
	if t.observesAccess {
		t.policy.OnAccess(a)
	}

	base := int(a.Set) * t.ways
	// The subslice bounds the way scan so the loop body runs without
	// per-iteration bounds checks — this is the hottest loop in a
	// TLB-only simulation. It reads only the packed tag array (invalid
	// ways hold tagFree, so one compare per way suffices); the 48-byte
	// entry is touched on a tag match alone, so a miss probe stays
	// within one cache line per set.
	tags := t.tags[base : base+t.ways]
	for w := range tags {
		if tags[w] == a.VPN {
			e := &t.entries[base+w]
			if e.asid != a.ASID {
				continue
			}
			e.lastHit = t.now
			t.stats.Hits++
			t.policy.OnHit(a.Set, w, a)
			return e.ppn, true
		}
	}
	t.stats.Misses++
	return 0, false
}

// Insert fills the translation vpn→ppn after a missing Lookup with the
// same Access. It prefers an invalid way; otherwise it asks the policy
// for a victim. It reports whether a valid entry was evicted and, if
// so, its VPN.
//
//chirp:hotpath
func (t *TLB) Insert(a *Access, ppn uint64) (evicted bool, evictedVPN uint64) {
	t.stats.Inserts++
	base := int(a.Set) * t.ways
	way := -1
	// Once a set has filled, it only empties again through a flush, so
	// the steady-state fill path skips the invalid-way scan entirely.
	if int(t.live[a.Set]) < t.ways {
		way = bits.TrailingZeros64(^t.valid[a.Set])
	}
	if way < 0 {
		way = t.policy.Victim(a.Set, a)
		if way < 0 || way >= t.ways {
			//chirp:allow hotpath-alloc reached only on a policy bug; the process is about to die
			panic(fmt.Sprintf("tlb %q: policy %s returned invalid victim way %d", t.cfg.Name, t.policy.Name(), way))
		}
		e := &t.entries[base+way]
		t.retire(e)
		t.stats.Evictions++
		evicted, evictedVPN = true, e.vpn
	} else {
		t.live[a.Set]++
	}
	e := &t.entries[base+way]
	e.vpn, e.ppn, e.asid = a.VPN, ppn, a.ASID
	e.insert, e.lastHit = t.now, t.now
	t.tags[base+way] = a.VPN
	t.valid[a.Set] |= 1 << uint(way)
	t.policy.OnInsert(a.Set, way, a)
	return evicted, evictedVPN
}

// InsertPrefetch fills vpn→ppn on behalf of a prefetcher. Unlike the
// demand path it is not preceded by a Lookup: prefetch traffic must
// not count as demand accesses or misses, so the hit/miss counters
// and the access clock are left untouched. It still honours the
// Policy contract — it marks the access as a prefetch, fills in the
// set index, and drives OnAccess before the fill — so signature
// policies compute fresh per-access state for the prefetched page
// instead of reusing whatever the last demand access latched.
// Callers should probe Contains first; inserting an already-resident
// VPN duplicates the entry.
//
//chirp:hotpath
func (t *TLB) InsertPrefetch(a *Access, ppn uint64) (evicted bool, evictedVPN uint64) {
	a.Set = t.SetIndex(a.VPN)
	t.stats.PrefetchInserts++
	a.Prefetch = true
	if t.observesAccess {
		t.policy.OnAccess(a)
	}
	return t.Insert(a, ppn)
}

// Flush invalidates every entry (a full TLB shootdown on hardware
// without ASID tagging), folding the interrupted lifetimes into the
// efficiency accounting.
func (t *TLB) Flush() {
	for s, m := range t.valid {
		base := s * t.ways
		for m != 0 {
			w := bits.TrailingZeros64(m)
			m &= m - 1
			t.retire(&t.entries[base+w])
		}
		t.valid[s] = 0
		t.live[s] = 0
	}
	for i := range t.tags {
		t.tags[i] = tagFree
	}
}

// retire folds a finished entry lifetime into the efficiency counters.
// Callers guarantee e is valid (reached through the valid bitmask or
// the full-set victim path).
//
//chirp:hotpath
func (t *TLB) retire(e *entry) {
	t.stats.liveTime += e.lastHit - e.insert
	t.stats.residentTime += t.now - e.insert
}

// FlushAccounting retires every still-resident entry's lifetime into
// the efficiency counters without invalidating the entries. Call once
// at end of simulation, before reading Stats().Efficiency.
func (t *TLB) FlushAccounting() {
	for s, m := range t.valid {
		base := s * t.ways
		for m != 0 {
			w := bits.TrailingZeros64(m)
			m &= m - 1
			e := &t.entries[base+w]
			t.stats.liveTime += e.lastHit - e.insert
			t.stats.residentTime += t.now - e.insert
			// Restart the lifetime so a second flush cannot double count.
			e.insert, e.lastHit = t.now, t.now
		}
	}
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// Now returns the TLB-local access clock (number of lookups so far).
func (t *TLB) Now() uint64 { return t.now }

// Contains reports whether vpn is currently resident. It is on the
// prefetch fill path (fills are gated on non-residence), so it scans
// the packed tag array like Lookup.
//
//chirp:hotpath
func (t *TLB) Contains(vpn uint64) bool {
	base := int(t.SetIndex(vpn)) * t.ways
	tags := t.tags[base : base+t.ways]
	for w := range tags {
		if tags[w] == vpn {
			return true
		}
	}
	return false
}

// ResidentVPNs returns the VPNs currently held in set (for tests and
// the OPT oracle's sanity checks), in way order; invalid ways are
// skipped.
func (t *TLB) ResidentVPNs(set uint32) []uint64 {
	base := int(set) * t.cfg.Ways
	var out []uint64
	for w := 0; w < t.cfg.Ways; w++ {
		if t.valid[set]>>uint(w)&1 == 1 {
			out = append(out, t.entries[base+w].vpn)
		}
	}
	return out
}
