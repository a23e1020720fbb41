// Package paging is the virtual-memory substrate: a physical-frame
// allocator mapping virtual page numbers to physical page numbers, a
// 4-level radix page table laid out in simulated physical memory, and
// a hardware page-table walker with paging-structure caches (PSCs —
// the MMU caches the paper's §I cites on Skylake).
//
// The paper's evaluation charges a flat, configurable page-walk
// penalty (20–360 cycles swept); the timing pipeline charges that
// itself and uses Space only for the frame. RadixWalker is the
// substrate extension (DESIGN.md X2): its PTE fetches traverse the
// simulated cache hierarchy, so walk latency emerges from locality
// instead of being a constant.
package paging

// PageShift is the 4 KB page geometry used throughout (§V).
const PageShift = 12

// Levels is the radix page-table depth (x86-64 4-level style: 9 bits
// per level over a 48-bit virtual address space).
const Levels = 4

// bitsPerLevel is the radix width of each level.
const bitsPerLevel = 9

// regionPages is the number of 4 KB pages in one 2 MiB region, the
// span of one leaf page-table node.
const regionPages = 1 << bitsPerLevel

// firstPPN is the first data frame. Data frames start high so they
// never collide with page-table node frames, and 0 is never a frame.
const firstPPN = 1 << 24

// Space is one virtual address space: the VPN→PPN mapping, plus the
// radix page table that encodes it once a RadixWalker is attached.
type Space struct {
	// regions maps a 2 MiB region (vpn >> bitsPerLevel) to the frames
	// of its pages, 0 where a page is unmapped. last is the region of
	// the previous lookup and lastFrames its frames, so a lookup in the
	// same region is an array index, not a map probe.
	regions    map[uint64]*[regionPages]uint64
	last       uint64
	lastFrames *[regionPages]uint64
	nextPPN    uint64
	pageFaults uint64

	// Radix page table, built only in page-table mode (see
	// buildPageTable): nodes maps a node's physical page to its 512
	// entries and is nil until then. Table pages live in a reserved
	// physical range so PTE fetches have stable addresses for the
	// cache model.
	root     uint64
	nodes    map[uint64][]uint64
	nextNode uint64
}

// NewSpace creates an address space. Consecutive frames are assigned
// on first touch (demand paging).
func NewSpace() *Space {
	return &Space{
		// The suite's workloads touch a few dozen regions at most, so
		// the map does not grow in a run, which allocates only the
		// frame table of each region it touches
		// (TestFrontEndAllocationFree).
		regions:  make(map[uint64]*[regionPages]uint64, 64),
		nextPPN:  firstPPN,
		nextNode: 1 << 20,
	}
}

// buildPageTable switches s to page-table mode: it builds the radix
// page table of every page mapped so far, in frame order, which is
// first-touch order, and from then on Translate extends the table at
// each first touch. Node frames are therefore the ones a table built
// from the start would have. It is a no-op in page-table mode.
func (s *Space) buildPageTable() {
	if s.nodes != nil {
		return
	}
	s.nodes = make(map[uint64][]uint64, 1024)
	s.root = s.allocNode()
	vpns := make([]uint64, s.nextPPN-firstPPN)
	for r, frames := range s.regions {
		for i, p := range frames {
			if p != 0 {
				vpns[p-firstPPN] = r<<bitsPerLevel | uint64(i)
			}
		}
	}
	for i, vpn := range vpns {
		s.insertPTE(vpn, firstPPN+uint64(i))
	}
}

func (s *Space) allocNode() uint64 {
	n := s.nextNode
	s.nextNode++
	s.nodes[n] = make([]uint64, 1<<bitsPerLevel)
	return n
}

// Translate returns the PPN for vpn, allocating a frame on first touch
// (and, in page-table mode, its page-table path). faulted reports a
// demand-paging fault (first-touch allocation).
func (s *Space) Translate(vpn uint64) (ppn uint64, faulted bool) {
	if r := vpn >> bitsPerLevel; s.lastFrames == nil || r != s.last {
		frames := s.regions[r]
		if frames == nil {
			frames = new([regionPages]uint64)
			s.regions[r] = frames
		}
		s.last, s.lastFrames = r, frames
	}
	slot := &s.lastFrames[vpn%regionPages]
	if *slot != 0 {
		return *slot, false
	}
	p := s.nextPPN
	s.nextPPN++
	*slot = p
	s.pageFaults++
	if s.nodes != nil {
		s.insertPTE(vpn, p)
	}
	return p, true
}

// insertPTE walks the radix tree, allocating nodes, and installs the
// leaf PTE.
func (s *Space) insertPTE(vpn, ppn uint64) {
	node := s.root
	for level := Levels - 1; level > 0; level-- {
		idx := (vpn >> uint(level*bitsPerLevel)) & (1<<bitsPerLevel - 1)
		entries := s.nodes[node]
		if entries[idx] == 0 {
			entries[idx] = s.allocNode()
		}
		node = entries[idx]
	}
	s.nodes[node][vpn&(1<<bitsPerLevel-1)] = ppn
}

// PTEAddress returns the physical address of the PTE consulted at the
// given level (Levels-1 is the root level, 0 the leaf) during a walk
// of vpn, and the next node. ok is false when the path is not mapped.
func (s *Space) pteAddress(node, vpn uint64, level int) (addr, next uint64, ok bool) {
	idx := (vpn >> uint(level*bitsPerLevel)) & (1<<bitsPerLevel - 1)
	entries, exists := s.nodes[node]
	if !exists {
		return 0, 0, false
	}
	addr = node<<PageShift | idx*8
	return addr, entries[idx], entries[idx] != 0
}

// PageFaults returns the demand-allocation count.
func (s *Space) PageFaults() uint64 { return s.pageFaults }

// Mapped returns how many pages have been touched: each faulted once.
func (s *Space) Mapped() int { return int(s.pageFaults) }

// PageTableNodes returns how many radix page-table nodes s holds: 0
// until a RadixWalker is attached.
func (s *Space) PageTableNodes() int { return len(s.nodes) }

// MemAccessor abstracts the cache hierarchy for PTE fetches so the
// radix walker can be tested without a full memory model.
type MemAccessor interface {
	// Access reads the line containing pa and returns its latency.
	Access(pa uint64, write bool) uint64
}

// PSCConfig sizes the paging-structure caches: one small
// fully-associative cache of intermediate table entries per non-leaf
// level, as in Intel's MMU caches.
type PSCConfig struct {
	// EntriesPerLevel is the capacity of each level's PSC (0 disables
	// PSCs entirely).
	EntriesPerLevel int
}

// pscCache is one paging-structure cache level: it remembers which
// interior node serves lookups at its level, keyed by the VPN bits
// above that level, with FIFO eviction.
type pscCache struct {
	cap   int
	nodes map[uint64]uint64
	fifo  []uint64
}

func newPSCCache(capacity int) *pscCache {
	return &pscCache{cap: capacity, nodes: make(map[uint64]uint64, capacity)}
}

func (c *pscCache) lookup(tag uint64) (uint64, bool) {
	n, ok := c.nodes[tag]
	return n, ok
}

func (c *pscCache) insert(tag, node uint64) {
	if _, ok := c.nodes[tag]; ok {
		c.nodes[tag] = node
		return
	}
	if len(c.nodes) >= c.cap {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.nodes, old)
	}
	c.nodes[tag] = node
	c.fifo = append(c.fifo, tag)
}

// RadixWalker performs real 4-level walks: each level's PTE fetch goes
// through the cache hierarchy unless a PSC short-circuits the upper
// levels.
type RadixWalker struct {
	space *Space
	mem   MemAccessor
	// psc[level] caches the node consulted at that level (levels 1 and
	// 2; level 3 is the root, level 0 the leaf — leaves belong in the
	// TLB, not the PSCs).
	psc map[int]*pscCache

	walks     uint64
	pteLoads  uint64
	pscHits   uint64
	cyclesSum uint64
}

// pscTag is the VPN prefix identifying the node consulted at level.
func pscTag(vpn uint64, level int) uint64 {
	return vpn >> uint((level+1)*bitsPerLevel)
}

// NewRadixWalker builds a walker over space whose PTE fetches go
// through mem. It switches space to page-table mode, building the
// table of the pages mapped so far.
func NewRadixWalker(space *Space, mem MemAccessor, cfg PSCConfig) *RadixWalker {
	space.buildPageTable()
	w := &RadixWalker{space: space, mem: mem, psc: make(map[int]*pscCache)}
	if cfg.EntriesPerLevel > 0 {
		for level := 1; level < Levels-1; level++ {
			w.psc[level] = newPSCCache(cfg.EntriesPerLevel)
		}
	}
	return w
}

// Walk translates vpn and returns its PPN and the walk's cycles: it
// starts from the deepest PSC hit, then fetches the remaining PTEs
// through the cache hierarchy.
func (w *RadixWalker) Walk(vpn uint64) (uint64, uint64) {
	w.walks++
	ppn, _ := w.space.Translate(vpn) // ensures the path exists

	node := w.space.root
	start := Levels - 1
	for level := 1; level < Levels-1; level++ { // deepest PSC first
		if c := w.psc[level]; c != nil {
			if n, ok := c.lookup(pscTag(vpn, level)); ok {
				node, start = n, level
				w.pscHits++
				break
			}
		}
	}

	var cycles uint64
	for level := start; level >= 0; level-- {
		if c := w.psc[level]; c != nil {
			c.insert(pscTag(vpn, level), node)
		}
		addr, next, ok := w.space.pteAddress(node, vpn, level)
		cycles += w.mem.Access(addr, false)
		w.pteLoads++
		if !ok {
			break
		}
		node = next
	}
	w.cyclesSum += cycles
	return ppn, cycles
}

// Stats returns (walks, PTE loads, PSC hits, total cycles).
func (w *RadixWalker) Stats() (walks, pteLoads, pscHits, cycles uint64) {
	return w.walks, w.pteLoads, w.pscHits, w.cyclesSum
}

// AverageLatency returns mean walk cycles.
func (w *RadixWalker) AverageLatency() float64 {
	if w.walks == 0 {
		return 0
	}
	return float64(w.cyclesSum) / float64(w.walks)
}
