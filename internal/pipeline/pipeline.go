// Package pipeline is the timing-approximate performance model of §V:
// an in-order pipeline charging first-order latency sources — the
// two-level TLB hierarchy with page walks, the L1/L2/L3/DRAM cache
// stack, and a hashed-perceptron branch unit with BTB and indirect
// predictor (20-cycle misprediction penalty). IPC from this model
// drives the paper's speedup figures (Figures 8 and 10).
package pipeline

import (
	"fmt"
	"io"

	"github.com/chirplab/chirp/internal/branch"
	"github.com/chirplab/chirp/internal/mem"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/paging"
	"github.com/chirplab/chirp/internal/policy"
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
	// only for a direct Run over a finite source: the suite timing
	// path rejects a zero budget.
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

// Machine is one assembled simulated core: a front end — caches,
// branch unit, L1 TLBs and the address space — and at most one L2
// unit, an L2 TLB under its policy. Build it with New and drive it
// once, with Run or with Tee and Finish.
//
// Without an L2 unit it is the policy-free front end: L1 misses charge
// the L2 hit latency and take their frame from the address space. A
// frame is fixed at a page's first touch, a compulsory L2 miss under
// every policy, and the flat walk penalty adds latency without memory
// traffic, so a policy's flat-penalty result is the front end's plus
// its post-warmup L2 misses × the penalty (sim.SuiteResult.Timing).
type Machine struct {
	cfg Config
	mem *mem.Hierarchy
	l1i *l1TLB
	l1d *l1TLB
	l2  *l2Unit // nil for the policy-free front end
	// observer is the L2 policy when it consumes the branch stream.
	observer tlb.BranchObserver
	space    *paging.Space
	pred     *branch.Perceptron
	btb      *branch.BTB
	ind      *branch.Indirect

	started, finished bool

	// The record loop's progress: cycles and instructions so far, the
	// warmup boundary and the counts latched there, and done once the
	// budget is reached.
	cycles, instructions         uint64
	warmupAt, warmInstr, warmCyc uint64
	warmed, done                 bool
}

// l2Unit is the L2 TLB with its policy. Under the flat penalty the
// unit counts its own walks; with the radix walker, radix does the
// walking and the counting.
type l2Unit struct {
	tlb   *tlb.TLB
	pol   tlb.Policy
	radix *paging.RadixWalker
	walks uint64
	// a is the L2 access of the translation in flight. It lives here
	// rather than in walk's frame because it escapes into the policy's
	// interface calls, which would heap-allocate a per-call value once
	// per walk.
	a        tlb.Access
	warmMiss uint64
}

// New assembles a machine around the injected L2 TLB policy. The L1
// TLBs run exact LRU, matching the paper's setup: l1Factory must build
// a *policy.LRU, and New refuses any other policy by name. A nil
// l2Policy assembles the policy-free front end, which takes no radix
// walker: the walker's PTE fetches depend on the policy's misses.
func New(cfg Config, l2Policy tlb.Policy, l1Factory func() tlb.Policy) (*Machine, error) {
	switch {
	case l1Factory == nil:
		return nil, fmt.Errorf("pipeline: nil L1 policy factory")
	case l2Policy == nil && cfg.UseRadixWalker:
		return nil, fmt.Errorf("pipeline: the radix walker needs an L2 policy")
	}
	l1 := l1Factory()
	if _, ok := l1.(*policy.LRU); !ok {
		name := "nil"
		if l1 != nil {
			name = l1.Name()
		}
		return nil, fmt.Errorf("pipeline: the L1 TLBs run exact LRU, not %s", name)
	}
	h, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	l1i, err := newL1TLB(cfg.L1ITLB)
	if err != nil {
		return nil, err
	}
	l1d, err := newL1TLB(cfg.L1DTLB)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg: cfg, mem: h, l1i: l1i, l1d: l1d,
		space:    paging.NewSpace(),
		pred:     branch.NewPerceptron(branch.DefaultPerceptronConfig()),
		btb:      branch.NewBTB(4096, 4),
		ind:      branch.NewIndirect(4096),
		warmupAt: uint64(float64(cfg.Instructions) * cfg.WarmupFraction),
	}
	m.warmed = m.warmupAt == 0
	if l2Policy == nil {
		return m, nil
	}
	t, err := tlb.New(cfg.L2TLB, l2Policy)
	if err != nil {
		return nil, err
	}
	m.l2 = &l2Unit{tlb: t, pol: l2Policy}
	if cfg.UseRadixWalker {
		// PTE fetches enter the hierarchy at the unified L2 cache, as
		// hardware walkers do.
		m.l2.radix = paging.NewRadixWalker(m.space, h.L2, cfg.PSC)
	}
	m.observer, _ = l2Policy.(tlb.BranchObserver)
	return m, nil
}

// translate resolves va through the two-level TLB hierarchy and
// returns the physical address. An L1 miss pays the L2 hit latency and
// takes its frame from walk.
//
//chirp:hotpath
func (m *Machine) translate(l1 *l1TLB, pc, va uint64) (pa uint64) {
	shift := m.cfg.L2TLB.PageShift
	vpn := va >> shift
	ppn, hit := l1.lookup(vpn)
	if !hit {
		m.cycles += m.cfg.L2TLBHitLatency
		ppn = m.walk(pc, vpn)
		l1.insert(vpn, ppn)
	}
	return ppn<<shift | va&0xfff
}

// walk returns the frame of an L1 miss. The front end takes it from
// the address space, which assigns a frame at a page's first touch and
// never remaps it. A machine with an L2 unit looks the page up there
// first; a miss walks, charging the flat penalty or the radix walk's
// cycles, and fills the L2 TLB.
//
//chirp:hotpath
func (m *Machine) walk(pc, vpn uint64) uint64 {
	u := m.l2
	if u == nil {
		ppn, _ := m.space.Translate(vpn)
		return ppn
	}
	u.a = tlb.Access{PC: pc, VPN: vpn}
	if p, hit := u.tlb.Lookup(&u.a); hit {
		return p
	}
	var p uint64
	if u.radix != nil {
		var walkCycles uint64
		p, walkCycles = u.radix.Walk(vpn)
		m.cycles += walkCycles
	} else {
		p, _ = m.space.Translate(vpn)
		m.cycles += m.cfg.WalkPenalty
		u.walks++
	}
	u.tlb.Insert(&u.a, p)
	return p
}

// onBranch forwards a committed branch to the observing L2 policy.
func (m *Machine) onBranch(pc uint64, conditional, indirect, taken bool, target uint64) {
	if m.observer != nil {
		m.observer.OnBranch(pc, conditional, indirect, taken, target)
	}
}

// Run drives src to completion (or the configured budget) and returns
// the post-warmup result: Tee, drained, then Finish.
func (m *Machine) Run(src trace.Source) (Result, error) {
	if m.started {
		return Result{}, fmt.Errorf("pipeline: machine already ran")
	}
	bs := trace.Blocks(m.Tee(src))
	var buf [trace.DefaultBlockSize]trace.Record
	for !m.done && bs.NextBlock(buf[:]) > 0 {
	}
	return m.Finish()
}

// Tee returns a source that reads src and drives the machine with
// every record read through it, up to the configured budget, so a
// reader of the trace (l2stream.Capture) runs the machine as it goes.
// Records past the budget pass through unseen, and Reset rewinds src
// but not the machine, which stops at the Reset. Finish then returns
// the result. A machine runs once, so teeing a machine that ran is a
// bug and panics.
func (m *Machine) Tee(src trace.Source) trace.Source {
	if m.started {
		panic("pipeline: machine already ran")
	}
	m.started = true
	return &tee{m: m, src: src, bs: trace.Blocks(src)}
}

// tee is the source Tee returns.
type tee struct {
	m   *Machine
	src trace.Source
	bs  trace.BlockSource
}

func (t *tee) NextBlock(buf []trace.Record) int {
	n := t.bs.NextBlock(buf)
	for i := range buf[:n] {
		t.m.record(&buf[i])
	}
	return n
}

func (t *tee) Next(rec *trace.Record) bool {
	if !t.src.Next(rec) {
		return false
	}
	t.m.record(rec)
	return true
}

func (t *tee) Reset() {
	t.m.done = true
	t.bs.Reset()
}

// Close closes src when it holds a resource (a trace file).
func (t *tee) Close() error {
	if c, ok := t.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// record drives the machine with one record: count its instructions
// and base cycles, latch the warmup boundary, then charge the record.
// Records past the budget are ignored.
//
//chirp:hotpath
func (m *Machine) record(rec *trace.Record) {
	if m.done {
		return
	}
	m.instructions += rec.Instructions()
	m.cycles += uint64(rec.Skip) + 1 // base CPI of 1
	if !m.warmed && m.instructions >= m.warmupAt {
		m.warmed = true
		m.warmInstr, m.warmCyc = m.instructions, m.cycles
		if m.l2 != nil {
			m.l2.warmMiss = m.l2.tlb.Stats().Misses
		}
	}
	m.step(rec)
	m.done = m.cfg.Instructions > 0 && m.instructions >= m.cfg.Instructions
}

// Finish returns the post-warmup result of the records the machine
// saw. It releases the L2 TLB's arrays, so it is called once, and
// publishes the run's TLB and predictor counters to the default obs
// registry on success.
func (m *Machine) Finish() (Result, error) {
	if !m.started || m.finished {
		return Result{}, fmt.Errorf("pipeline: Finish needs one run, begun with Tee")
	}
	m.finished = true
	if m.l2 != nil {
		defer m.l2.tlb.Release()
	}
	if !m.warmed {
		return Result{}, fmt.Errorf("pipeline: trace ended before warmup (%d < %d instructions)", m.instructions, m.warmupAt)
	}
	res := Result{
		Instructions:   m.instructions - m.warmInstr,
		Cycles:         m.cycles - m.warmCyc,
		BranchAccuracy: m.pred.Accuracy(),
		BTBHitRatio:    m.btb.HitRatio(),
		IndirectHit:    m.ind.HitRatio(),
		PageFaults:     m.space.PageFaults(),
		DRAMAccesses:   m.mem.DRAM.Accesses(),
	}
	if u := m.l2; u != nil {
		u.tlb.FlushAccounting()
		st := u.tlb.Stats()
		res.Policy = u.pol.Name()
		res.L2TLBMisses = st.Misses - u.warmMiss
		res.L2TLBStats = st
		res.Efficiency = st.Efficiency()
		if u.radix != nil {
			res.PageWalks, _, _, _ = u.radix.Stats()
			res.AvgWalkCycles = u.radix.AverageLatency()
		} else {
			res.PageWalks = u.walks
			res.AvgWalkCycles = float64(m.cfg.WalkPenalty)
		}
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.L2TLBMisses) / (float64(res.Instructions) / 1000)
	}
	m.publish()
	return res, nil
}

// step charges one record's fetch, data access and branch resolution
// beyond its base CPI.
//
//chirp:hotpath
func (m *Machine) step(rec *trace.Record) {
	// Fetch: translation plus i-cache beyond the pipelined L1 hit.
	pa := m.translate(m.l1i, rec.PC, rec.PC)
	if fl, l1iLat := m.mem.FetchLatency(pa), m.cfg.Mem.L1I.LatencyCycles; fl > l1iLat {
		m.cycles += fl - l1iLat
	}

	switch {
	case rec.Class.IsMemory():
		pa := m.translate(m.l1d, rec.PC, rec.EA)
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

// publish flushes the finished run's counters into the default obs
// registry: every TLB's per-level stats plus whatever the L2 policy
// publishes itself (CHiRP's predictor counters). Called once per run,
// after the record loop.
func (m *Machine) publish() {
	m.l1i.publish()
	m.l1d.publish()
	if u := m.l2; u != nil {
		u.tlb.PublishMetrics()
		if pub, ok := u.pol.(obs.Publisher); ok {
			pub.PublishMetrics()
		}
	}
}
