// Package pipeline is the timing-approximate performance model of §V:
// an in-order pipeline charging first-order latency sources — the
// two-level TLB hierarchy with page walks, the L1/L2/L3/DRAM cache
// stack, and a hashed-perceptron branch unit with BTB and indirect
// predictor (20-cycle misprediction penalty). IPC from this model
// drives the paper's speedup figures (Figures 8 and 10).
package pipeline

import (
	"fmt"

	"github.com/chirplab/chirp/internal/branch"
	"github.com/chirplab/chirp/internal/mem"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/paging"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
)

// Config parameterises one timing run.
type Config struct {
	// Mem is the cache stack (Table II defaults).
	Mem mem.HierarchyConfig
	// L1ITLB, L1DTLB, L2TLB are the TLB geometries (Table II defaults).
	L1ITLB, L1DTLB, L2TLB tlb.Config
	// L2TLBHitLatency is charged when an L1 TLB miss hits the L2 TLB
	// (8 cycles in Table II).
	L2TLBHitLatency uint64
	// WalkPenalty is the flat L2-TLB-miss penalty (Table II: 20–360
	// swept; 150 for the headline speedup). Ignored when UseRadixWalker
	// is set.
	WalkPenalty uint64
	// UseRadixWalker replaces the flat penalty with real 4-level walks
	// through the cache hierarchy (extension X2).
	UseRadixWalker bool
	// PSC sizes the radix walker's paging-structure caches.
	PSC paging.PSCConfig
	// MispredictPenalty is the front-end redirect cost (Table II: 20).
	MispredictPenalty uint64
	// Instructions bounds the run. 0 drains the source, which holds
	// only for a direct Run or RunMulti over a finite source:
	// sim.RunSuiteTimingCtx rejects a zero budget.
	Instructions uint64
	// WarmupFraction of instructions warms all structures before IPC
	// and MPKI measurement begin (the paper warms on the first half).
	WarmupFraction float64
}

// DefaultConfig returns the Table II machine with the given
// instruction budget and page-walk penalty.
func DefaultConfig(instructions, walkPenalty uint64) Config {
	return Config{
		Mem:               mem.DefaultHierarchyConfig(),
		L1ITLB:            tlb.Config{Name: "L1 iTLB", Entries: 64, Ways: 8, PageShift: 12},
		L1DTLB:            tlb.Config{Name: "L1 dTLB", Entries: 64, Ways: 8, PageShift: 12},
		L2TLB:             tlb.Config{Name: "L2 TLB", Entries: 1024, Ways: 8, PageShift: 12},
		L2TLBHitLatency:   8,
		WalkPenalty:       walkPenalty,
		MispredictPenalty: 20,
		Instructions:      instructions,
		WarmupFraction:    0.5,
	}
}

// Result reports one timing run.
type Result struct {
	Policy       string
	Instructions uint64 // measured (post-warmup)
	Cycles       uint64 // measured (post-warmup)
	IPC          float64
	L2TLBMisses  uint64 // post-warmup
	MPKI         float64
	L2TLBStats   tlb.Stats // whole run
	Efficiency   float64

	BranchAccuracy float64
	BTBHitRatio    float64
	IndirectHit    float64
	PageWalks      uint64
	AvgWalkCycles  float64
	PageFaults     uint64
	DRAMAccesses   uint64
}

// Machine is one assembled simulated core; build with New or
// NewMulti, drive once with Run or RunMulti.
//
// A machine carries one front end — caches, branch unit, L1 TLBs and
// the address space — and one or more L2 units, each an L2 TLB under
// its own policy. Every unit sees the same L1-miss stream: the L1s run
// LRU and are filled from the walked frame, which is the same under
// every policy (frames are assigned at a page's first touch, and that
// first touch is a compulsory L2 miss for every policy), and the flat
// walk penalty adds latency without memory traffic. So one front-end
// pass yields, per unit, exactly the result of a solo machine.
type Machine struct {
	cfg   Config
	mem   *mem.Hierarchy
	l1i   *tlb.TLB
	l1d   *tlb.TLB
	units []l2Unit
	// observers are the units' policies that consume the branch
	// stream, in unit order.
	observers []tlb.BranchObserver
	space     *paging.Space
	pred      *branch.Perceptron
	btb       *branch.BTB
	ind       *branch.Indirect
	ran       bool

	// a is the L1 TLB access of the translation in flight. It lives
	// here rather than in translate's frame because it escapes into
	// the L1 policy's interface calls, which would heap-allocate a
	// per-call value once per reference.
	a tlb.Access
	// cycles accumulates everything but the units' L2-side
	// translation cycles.
	cycles uint64
}

// l2Unit is one L2 TLB with its policy and translation cycle total
// (L2 hit latency plus walk cycles). Under the flat penalty the unit
// counts its own walks; with the radix walker, radix does the walking
// and the counting.
type l2Unit struct {
	tlb    *tlb.TLB
	pol    tlb.Policy
	radix  *paging.RadixWalker
	cycles uint64
	walks  uint64
	// a is the unit's L2 access of the translation in flight, hoisted
	// for the same reason as Machine.a; missed marks a Lookup that
	// still owes its Insert.
	a      tlb.Access
	missed bool

	warmCyc, warmMiss uint64
}

// New assembles a machine around the injected L2 TLB policy. The L1
// TLBs always run LRU, matching the paper's setup.
func New(cfg Config, l2Policy tlb.Policy, l1Factory func() tlb.Policy) (*Machine, error) {
	return NewMulti(cfg, []tlb.Policy{l2Policy}, l1Factory)
}

// NewMulti assembles one machine whose front end drives an L2 TLB per
// policy in l2. The radix walker fetches PTEs through the shared cache
// hierarchy, so walks under one policy would perturb the caches every
// other policy sees; it is accepted only with a single policy.
func NewMulti(cfg Config, l2 []tlb.Policy, l1Factory func() tlb.Policy) (*Machine, error) {
	switch {
	case l1Factory == nil:
		return nil, fmt.Errorf("pipeline: nil L1 policy factory")
	case len(l2) == 0:
		return nil, fmt.Errorf("pipeline: no L2 policy")
	case cfg.UseRadixWalker && len(l2) > 1:
		return nil, fmt.Errorf("pipeline: the radix walker shares the cache hierarchy, so it runs one L2 policy per machine (got %d)", len(l2))
	}
	h, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	l1i, err := tlb.New(cfg.L1ITLB, l1Factory())
	if err != nil {
		return nil, err
	}
	l1d, err := tlb.New(cfg.L1DTLB, l1Factory())
	if err != nil {
		l1i.Release()
		return nil, err
	}
	m := &Machine{
		cfg: cfg, mem: h, l1i: l1i, l1d: l1d,
		space: paging.NewSpace(),
		pred:  branch.NewPerceptron(branch.DefaultPerceptronConfig()),
		btb:   branch.NewBTB(4096, 4),
		ind:   branch.NewIndirect(4096),
	}
	m.units = make([]l2Unit, 0, len(l2))
	for _, p := range l2 {
		t, err := tlb.New(cfg.L2TLB, p)
		if err != nil {
			m.release()
			return nil, err
		}
		u := l2Unit{tlb: t, pol: p}
		if cfg.UseRadixWalker {
			// PTE fetches enter the hierarchy at the unified L2 cache,
			// as hardware walkers do.
			u.radix = paging.NewRadixWalker(m.space, h.L2, cfg.PSC)
		}
		m.units = append(m.units, u)
		if bo, ok := p.(tlb.BranchObserver); ok {
			m.observers = append(m.observers, bo)
		}
	}
	return m, nil
}

// release returns every TLB's arrays to the tlb pool.
func (m *Machine) release() {
	m.l1i.Release()
	m.l1d.Release()
	for i := range m.units {
		m.units[i].tlb.Release()
	}
}

// translate resolves va through the two-level TLB hierarchy and
// returns the physical address. An L1 miss goes to every L2 unit,
// each of which charges its own hit latency and walk cycles.
//
//chirp:hotpath
func (m *Machine) translate(l1 *tlb.TLB, pc, va uint64, instr bool) (pa uint64) {
	shift := m.cfg.L2TLB.PageShift
	vpn := va >> shift
	m.a = tlb.Access{PC: pc, VPN: vpn, Instr: instr}
	if ppn, hit := l1.Lookup(&m.a); hit {
		return ppn<<shift | va&0xfff
	}
	var ppn uint64
	if u := &m.units[0]; u.radix != nil {
		ppn = m.walkRadix(u, pc, vpn, instr)
	} else {
		ppn = m.walkFlat(pc, vpn, instr)
	}
	l1.Insert(&m.a, ppn)
	return ppn<<shift | va&0xfff
}

// walkFlat sends an L1 miss to every unit under the flat walk penalty
// and returns the page's frame. A frame is assigned at a page's first
// touch and never remapped, so any unit that hits holds the frame
// every missing unit needs; only when no unit hits does the address
// space translate, once, for all of them. Each missing unit then
// fills, charges the penalty and counts a walk of its own.
//
//chirp:hotpath
func (m *Machine) walkFlat(pc, vpn uint64, instr bool) uint64 {
	var ppn uint64
	found := false
	for i := range m.units {
		u := &m.units[i]
		u.a = tlb.Access{PC: pc, VPN: vpn, Instr: instr}
		u.cycles += m.cfg.L2TLBHitLatency
		p, hit := u.tlb.Lookup(&u.a)
		u.missed = !hit
		if hit && !found {
			ppn, found = p, true
		}
	}
	if !found {
		ppn, _ = m.space.Translate(vpn)
	}
	for i := range m.units {
		if u := &m.units[i]; u.missed {
			u.tlb.Insert(&u.a, ppn)
			u.cycles += m.cfg.WalkPenalty
			u.walks++
		}
	}
	return ppn
}

// walkRadix sends an L1 miss to the one unit a radix-walker machine
// has; a miss walks the page table through the cache hierarchy.
//
//chirp:hotpath
func (m *Machine) walkRadix(u *l2Unit, pc, vpn uint64, instr bool) uint64 {
	u.a = tlb.Access{PC: pc, VPN: vpn, Instr: instr}
	u.cycles += m.cfg.L2TLBHitLatency
	if p, hit := u.tlb.Lookup(&u.a); hit {
		return p
	}
	p, walkCycles := u.radix.Walk(vpn)
	u.tlb.Insert(&u.a, p)
	u.cycles += walkCycles
	return p
}

// onBranch forwards a committed branch to every observing L2 policy.
func (m *Machine) onBranch(pc uint64, conditional, indirect, taken bool, target uint64) {
	for _, bo := range m.observers {
		bo.OnBranch(pc, conditional, indirect, taken, target)
	}
}

// Run drives src to completion (or the configured budget) and returns
// the post-warmup result of a one-policy machine.
func (m *Machine) Run(src trace.Source) (Result, error) {
	rs, err := m.RunMulti(src)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// RunMulti drives src to completion (or the configured budget) and
// returns one post-warmup result per L2 policy, in NewMulti order. A
// machine runs once: RunMulti releases its TLBs' arrays before
// returning, and publishes the run's TLB and predictor counters to the
// default obs registry on success.
func (m *Machine) RunMulti(src trace.Source) ([]Result, error) {
	if m.ran {
		return nil, fmt.Errorf("pipeline: machine already ran")
	}
	m.ran = true
	defer m.release()

	var (
		instructions uint64

		warmupAt  = uint64(float64(m.cfg.Instructions) * m.cfg.WarmupFraction)
		warmed    = warmupAt == 0
		warmInstr uint64
		warmCyc   uint64
	)
	bs := trace.Blocks(src)
	var buf [trace.DefaultBlockSize]trace.Record
loop:
	for {
		n := bs.NextBlock(buf[:])
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			rec := &buf[i]
			instructions += rec.Instructions()
			m.cycles += uint64(rec.Skip) + 1 // base CPI of 1

			if !warmed && instructions >= warmupAt {
				warmed = true
				warmInstr, warmCyc = instructions, m.cycles
				for j := range m.units {
					u := &m.units[j]
					u.warmCyc, u.warmMiss = u.cycles, u.tlb.Stats().Misses
				}
			}
			m.step(rec)
			if m.cfg.Instructions > 0 && instructions >= m.cfg.Instructions {
				break loop
			}
		}
	}
	if !warmed {
		return nil, fmt.Errorf("pipeline: trace ended before warmup (%d < %d instructions)", instructions, warmupAt)
	}

	shared := Result{
		Instructions:   instructions - warmInstr,
		BranchAccuracy: m.pred.Accuracy(),
		BTBHitRatio:    m.btb.HitRatio(),
		IndirectHit:    m.ind.HitRatio(),
		PageFaults:     m.space.PageFaults(),
		DRAMAccesses:   m.mem.DRAM.Accesses(),
	}
	out := make([]Result, len(m.units))
	for i := range m.units {
		out[i] = m.unitResult(&m.units[i], shared, m.cycles-warmCyc)
	}
	m.publish()
	return out, nil
}

// step charges one record's fetch, data access and branch resolution
// beyond its base CPI: the front end's cycles go to m.cycles, each L2
// unit's translation cycles to the unit.
//
//chirp:hotpath
func (m *Machine) step(rec *trace.Record) {
	// Fetch: translation plus i-cache beyond the pipelined L1 hit.
	pa := m.translate(m.l1i, rec.PC, rec.PC, true)
	if fl, l1iLat := m.mem.FetchLatency(pa), m.cfg.Mem.L1I.LatencyCycles; fl > l1iLat {
		m.cycles += fl - l1iLat
	}

	switch {
	case rec.Class.IsMemory():
		pa := m.translate(m.l1d, rec.PC, rec.EA, false)
		if dl, l1dLat := m.mem.DataLatency(pa, rec.Class == trace.ClassStore), m.cfg.Mem.L1D.LatencyCycles; dl > l1dLat {
			m.cycles += dl - l1dLat
		}
	case rec.Class == trace.ClassCondBranch:
		m.pred.Predict(rec.PC) // latches state consumed by Train
		target, btbHit := m.btb.Lookup(rec.PC)
		correct := m.pred.Train(rec.Taken)
		// A taken branch also needs the right target from the BTB.
		if !correct || (rec.Taken && (!btbHit || target != rec.Target)) {
			m.cycles += m.cfg.MispredictPenalty
		}
		if rec.Taken {
			m.btb.Update(rec.PC, rec.Target)
		}
		m.onBranch(rec.PC, true, false, rec.Taken, rec.Target)
	case rec.Class == trace.ClassUncondDirect:
		target, btbHit := m.btb.Lookup(rec.PC)
		if !btbHit || target != rec.Target {
			m.cycles += m.cfg.MispredictPenalty
		}
		m.btb.Update(rec.PC, rec.Target)
		m.onBranch(rec.PC, false, false, true, rec.Target)
	case rec.Class == trace.ClassUncondIndirect:
		target, hit := m.ind.Predict(rec.PC)
		if !hit || target != rec.Target {
			m.cycles += m.cfg.MispredictPenalty
		}
		m.ind.Update(rec.PC, rec.Target)
		m.onBranch(rec.PC, false, true, true, rec.Target)
	}
}

// unitResult completes shared — the front end's post-warmup figures —
// with u's L2 statistics and translation cycles.
func (m *Machine) unitResult(u *l2Unit, shared Result, sharedCycles uint64) Result {
	u.tlb.FlushAccounting()
	st := u.tlb.Stats()
	res := shared
	res.Policy = u.pol.Name()
	res.Cycles = sharedCycles + u.cycles - u.warmCyc
	res.L2TLBMisses = st.Misses - u.warmMiss
	res.L2TLBStats = st
	res.Efficiency = st.Efficiency()
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.L2TLBMisses) / (float64(res.Instructions) / 1000)
	}
	if u.radix != nil {
		res.PageWalks, _, _, _ = u.radix.Stats()
		res.AvgWalkCycles = u.radix.AverageLatency()
	} else {
		res.PageWalks = u.walks
		res.AvgWalkCycles = float64(m.cfg.WalkPenalty)
	}
	return res
}

// publish flushes the finished run's counters into the default obs
// registry: every TLB's per-level stats plus whatever each L2 policy
// publishes itself (CHiRP's predictor counters). Called once per run,
// after the record loop.
func (m *Machine) publish() {
	m.l1i.PublishMetrics()
	m.l1d.PublishMetrics()
	for i := range m.units {
		m.units[i].tlb.PublishMetrics()
		if pub, ok := m.units[i].pol.(obs.Publisher); ok {
			pub.PublishMetrics()
		}
	}
}
