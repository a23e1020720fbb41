package branch

import (
	"math/bits"

	"github.com/chirplab/chirp/internal/lru"
)

// BTB is a set-associative branch target buffer (4K entries in Table
// II) with LRU replacement: an lru.Sets whose payload is the target.
type BTB struct {
	// setMask and tagShift split pc>>2 into set index and tag;
	// tagShift is log2(sets).
	setMask  uint64
	tagShift uint
	entries  lru.Sets[uint64]

	lookups uint64
	hits    uint64
}

// NewBTB builds an entries-entry, ways-way BTB.
func NewBTB(entries, ways int) *BTB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("branch: BTB entries must be a positive multiple of ways")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("branch: BTB set count must be a power of two")
	}
	return &BTB{
		setMask:  uint64(sets - 1),
		tagShift: uint(bits.TrailingZeros(uint(sets))),
		entries:  lru.New[uint64](sets, ways),
	}
}

// index returns the set of the branch at pc and its tag.
func (b *BTB) index(pc uint64) (set, tag uint64) {
	line := pc >> 2
	return line & b.setMask, line >> b.tagShift
}

// Lookup returns the predicted target for the branch at pc.
//
//chirp:hotpath
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.lookups++
	if t := b.entries.Lookup(b.index(pc)); t != nil {
		b.hits++
		return *t, true
	}
	return 0, false
}

// Update installs or refreshes the target for the branch at pc: a
// resident entry is refreshed, else the entry fills a free way, else
// it replaces the LRU entry.
//
//chirp:hotpath
func (b *BTB) Update(pc, target uint64) {
	set, tag := b.index(pc)
	if t := b.entries.Lookup(set, tag); t != nil {
		*t = target
		return
	}
	b.entries.Fill(set, tag, target)
}

// HitRatio returns hits/lookups.
func (b *BTB) HitRatio() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}

// Indirect predicts indirect-branch targets from a hash of the PC and
// a folded global target history (an ITTAGE-flavoured single table).
type Indirect struct {
	size    int
	tags    []uint64
	targets []uint64
	history uint64

	lookups uint64
	hits    uint64
}

// NewIndirect builds a size-entry (power of two) indirect predictor.
func NewIndirect(size int) *Indirect {
	if size <= 0 || size&(size-1) != 0 {
		panic("branch: indirect predictor size must be a power of two")
	}
	return &Indirect{size: size, tags: make([]uint64, size), targets: make([]uint64, size)}
}

func (ip *Indirect) index(pc uint64) (idx int, tag uint64) {
	x := pc>>2 ^ ip.history*0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return int(x & uint64(ip.size-1)), x >> 48
}

// Predict returns the predicted target for the indirect branch at pc.
func (ip *Indirect) Predict(pc uint64) (target uint64, hit bool) {
	ip.lookups++
	idx, tag := ip.index(pc)
	if ip.tags[idx] == tag && ip.targets[idx] != 0 {
		ip.hits++
		return ip.targets[idx], true
	}
	return 0, false
}

// Update records the actual target and folds it into the history. The
// fold mixes a spread of target bits so that page-aligned targets
// (whose low bits are all zero) still perturb the history.
func (ip *Indirect) Update(pc, target uint64) {
	idx, tag := ip.index(pc)
	ip.tags[idx] = tag
	ip.targets[idx] = target
	nib := (target >> 2) ^ (target >> 8) ^ (target >> 14)
	ip.history = ip.history<<4 ^ nib&0xf ^ ip.history>>60
}

// HitRatio returns hits/lookups.
func (ip *Indirect) HitRatio() float64 {
	if ip.lookups == 0 {
		return 0
	}
	return float64(ip.hits) / float64(ip.lookups)
}
