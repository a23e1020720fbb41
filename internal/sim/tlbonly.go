// Package sim provides the simulation drivers: a fast TLB-only driver
// for MPKI experiments (the paper's Figure 6/7/9/11 numbers need no
// timing model) and the suite runner that fans workloads across
// policies. A timing pass of the suite runner adds one policy-free
// front-end pass of internal/pipeline per workload, from which each
// TLB-only row derives its timing result at any flat walk penalty.
package sim

import (
	"fmt"

	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
)

// Hierarchy is the TLB geometry of Table II.
type Hierarchy struct {
	L1I tlb.Config
	L1D tlb.Config
	L2  tlb.Config
}

// DefaultHierarchy returns the paper's Table II TLB parameters:
// 64-entry 8-way L1 instruction and data TLBs and a 1024-entry 8-way
// unified L2 TLB, 4 KB pages.
func DefaultHierarchy() Hierarchy {
	return Hierarchy{
		L1I: tlb.Config{Name: "L1 iTLB", Entries: 64, Ways: 8, PageShift: 12},
		L1D: tlb.Config{Name: "L1 dTLB", Entries: 64, Ways: 8, PageShift: 12},
		L2:  tlb.Config{Name: "L2 TLB", Entries: 1024, Ways: 8, PageShift: 12},
	}
}

// TLBOnlyConfig parameterises a TLB-only run.
type TLBOnlyConfig struct {
	Hierarchy Hierarchy
	// Instructions bounds the committed instruction count. 0 drains
	// the source, which holds only for a direct RunTLBOnly call over a
	// finite source: RunSpec validation and the suite drivers reject a
	// zero budget.
	Instructions uint64
	// WarmupFraction of instructions warms the structures before MPKI
	// measurement begins (the paper warms on the first half).
	WarmupFraction float64
	// PrefetchDistance, when positive, enables a confidence-gated
	// stride prefetcher into the L2 TLB — the distance prefetching of
	// the related work the paper positions replacement against ([44],
	// [45]): per accessing PC, a small table learns the page stride of
	// successive misses and, once confident, prefetches the next
	// PrefetchDistance pages along it. Prefetches do not count as
	// accesses or misses; they compose with any replacement policy.
	PrefetchDistance int
}

// DefaultTLBOnlyConfig returns the paper's setup at a given
// instruction budget.
func DefaultTLBOnlyConfig(instructions uint64) TLBOnlyConfig {
	return TLBOnlyConfig{
		Hierarchy:      DefaultHierarchy(),
		Instructions:   instructions,
		WarmupFraction: 0.5,
	}
}

// TLBOnlyResult reports one TLB-only run.
type TLBOnlyResult struct {
	Policy       string
	Instructions uint64 // measured (post-warmup) instructions
	L2Accesses   uint64 // total, including warmup
	L2Misses     uint64 // post-warmup misses
	// L2TotalMisses counts the whole run's misses, warmup included: a
	// timing row's page walks.
	L2TotalMisses uint64
	MPKI          float64
	Efficiency    float64
	// TableReads/Writes and TableAccessRate cover the whole run for
	// policies with prediction tables (Figure 11's metric).
	TableReads      uint64
	TableWrites     uint64
	TableAccessRate float64
	// L1IMisses/L1DMisses are post-warmup, for i/d-side breakdowns.
	L1IMisses uint64
	L1DMisses uint64
}

// RunTLBOnly drives src through the two L1 TLBs (always LRU, as the
// paper holds L1 policy fixed) and the L2 TLB under l2p. It returns
// post-warmup MPKI against committed instructions.
func RunTLBOnly(src trace.Source, l2p tlb.Policy, cfg TLBOnlyConfig) (TLBOnlyResult, error) {
	l1i, err := tlb.New(cfg.Hierarchy.L1I, policy.NewLRU())
	if err != nil {
		return TLBOnlyResult{}, err
	}
	defer l1i.Release()
	l1d, err := tlb.New(cfg.Hierarchy.L1D, policy.NewLRU())
	if err != nil {
		return TLBOnlyResult{}, err
	}
	defer l1d.Release()
	l2, err := tlb.New(cfg.Hierarchy.L2, l2p)
	if err != nil {
		return TLBOnlyResult{}, err
	}
	defer l2.Release()
	bo, observesBranches := l2p.(tlb.BranchObserver)

	pageShift := cfg.Hierarchy.L2.PageShift
	warmupAt := uint64(float64(cfg.Instructions) * cfg.WarmupFraction)
	if cfg.Instructions == 0 {
		warmupAt = 0 // unbounded runs measure everything
	}

	var (
		instructions uint64
		warmStats    tlb.Stats
		warmI, warmD tlb.Stats
		warmed       = warmupAt == 0
		warmInstrAt  uint64
		rec          trace.Record
	)

	d := &directState{l2: l2}
	if cfg.PrefetchDistance > 0 {
		d.pf = newStridePrefetcher(cfg.PrefetchDistance)
	}

	for src.Next(&rec) {
		instructions += rec.Instructions()
		if !warmed && instructions >= warmupAt {
			warmed = true
			warmStats = l2.Stats()
			warmI, warmD = l1i.Stats(), l1d.Stats()
			warmInstrAt = instructions
		}

		d.access(l1i, rec.PC, rec.PC>>pageShift)
		switch {
		case rec.Class.IsMemory():
			d.access(l1d, rec.PC, rec.EA>>pageShift)
		case rec.Class.IsBranch():
			if observesBranches {
				bo.OnBranch(rec.PC,
					rec.Class == trace.ClassCondBranch,
					rec.Class == trace.ClassUncondIndirect,
					rec.Taken, rec.Target)
			}
		}
		if cfg.Instructions > 0 && instructions >= cfg.Instructions {
			break
		}
	}
	if !warmed {
		return TLBOnlyResult{}, fmt.Errorf("sim: trace ended before warmup boundary (%d < %d instructions)", instructions, warmupAt)
	}

	l2.FlushAccounting()
	publishRun(l2p, l1i, l1d, l2)
	st := l2.Stats()
	res := TLBOnlyResult{
		Policy:        l2p.Name(),
		Instructions:  instructions - warmInstrAt,
		L2Accesses:    st.Accesses,
		L2Misses:      st.Misses - warmStats.Misses,
		L2TotalMisses: st.Misses,
		Efficiency:    st.Efficiency(),
		L1IMisses:     l1i.Stats().Misses - warmI.Misses,
		L1DMisses:     l1d.Stats().Misses - warmD.Misses,
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.L2Misses) / (float64(res.Instructions) / 1000)
	}
	if ta, ok := l2p.(tlb.TableAccounting); ok {
		res.TableReads, res.TableWrites = ta.TableAccesses()
		if st.Accesses > 0 {
			res.TableAccessRate = float64(res.TableReads+res.TableWrites) / float64(st.Accesses)
		}
	}
	return res, nil
}

// directState is the direct driver's per-run inner-loop state. The
// access path is a method rather than a closure because it is
// //chirp:hotpath (closures are banned there), and the hoisted Access
// structs live in the struct: they escape into the policy interface
// calls, so declaring them per call would heap-allocate once per
// record. The L1 access keeps its own struct because l1.Insert needs
// the L1 set index after the L2 path overwrote a2's.
type directState struct {
	l2        *tlb.TLB
	pf        *stridePrefetcher
	a, a2, pa tlb.Access
}

// access sends one reference through an L1 TLB and, on miss, the L2.
//
//chirp:hotpath
func (d *directState) access(l1 *tlb.TLB, pc, vpn uint64) {
	d.a = tlb.Access{PC: pc, VPN: vpn}
	if _, hit := l1.Lookup(&d.a); hit {
		return
	}
	d.a2 = tlb.Access{PC: pc, VPN: vpn}
	if _, hit := d.l2.Lookup(&d.a2); !hit {
		// Page walk; identity translation suffices for MPKI runs.
		d.l2.Insert(&d.a2, vpn)
	}
	if d.pf != nil {
		// The prefetcher observes the full L2 access stream (training
		// on misses alone leaves stride gaps behind its own
		// prefetches). Fills go through InsertPrefetch: it bypasses
		// the demand hit/miss accounting but drives the policy's
		// OnAccess for the prefetch access, so signature policies tag
		// the prefetched page with its own fresh state (see the
		// tlb.Policy prefetch contract).
		for _, pv := range d.pf.observe(pc, vpn) {
			if d.l2.Contains(pv) {
				continue
			}
			d.pa = tlb.Access{PC: pc, VPN: pv}
			d.l2.InsertPrefetch(&d.pa, pv)
		}
	}
	l1.Insert(&d.a, vpn)
}

// publishRun flushes a finished run's aggregated counters into the
// default obs registry: per-level TLB stats plus whatever the policy
// itself publishes (CHiRP's predictor counters). Called once per run —
// never on the hot path — so the simulation loops pay nothing for
// observability.
func publishRun(l2p tlb.Policy, tlbs ...*tlb.TLB) {
	for _, t := range tlbs {
		t.PublishMetrics()
	}
	if pub, ok := l2p.(obs.Publisher); ok {
		pub.PublishMetrics()
	}
}

// CollectL2Stream replays src through LRU L1 TLBs and records the VPN
// sequence presented to the L2 TLB. Because the L1s' behaviour does
// not depend on the L2 policy, this stream is identical for every L2
// policy, so it can seed the Bélády OPT oracle.
func CollectL2Stream(src trace.Source, cfg TLBOnlyConfig) ([]uint64, error) {
	l1i, err := tlb.New(cfg.Hierarchy.L1I, policy.NewLRU())
	if err != nil {
		return nil, err
	}
	defer l1i.Release()
	l1d, err := tlb.New(cfg.Hierarchy.L1D, policy.NewLRU())
	if err != nil {
		return nil, err
	}
	defer l1d.Release()
	pageShift := cfg.Hierarchy.L2.PageShift
	var (
		stream       []uint64
		instructions uint64
	)
	var a tlb.Access
	access := func(l1 *tlb.TLB, pc, vpn uint64) {
		a = tlb.Access{PC: pc, VPN: vpn}
		if _, hit := l1.Lookup(&a); hit {
			return
		}
		stream = append(stream, vpn)
		l1.Insert(&a, vpn)
	}
	// Pull records in blocks, like l2stream.Capture: batched sources
	// (the workload generator) fill the whole block in one virtual call
	// instead of paying an interface dispatch per record.
	bs := trace.Blocks(src)
	var buf [trace.DefaultBlockSize]trace.Record
	for {
		n := bs.NextBlock(buf[:])
		if n == 0 {
			return stream, nil
		}
		for i := 0; i < n; i++ {
			rec := &buf[i]
			instructions += rec.Instructions()
			access(l1i, rec.PC, rec.PC>>pageShift)
			if rec.Class.IsMemory() {
				access(l1d, rec.PC, rec.EA>>pageShift)
			}
			if cfg.Instructions > 0 && instructions >= cfg.Instructions {
				return stream, nil
			}
		}
	}
}

// stridePrefetcher learns, per accessing PC, the page stride between
// successive L2 misses and issues prefetches only once the stride has
// repeated (2-bit confidence) — the recency/distance prefetching
// lineage of Saulsbury et al. and Kandiraju & Sivasubramaniam.
type stridePrefetcher struct {
	distance int
	lastVPN  [256]uint64
	stride   [256]int64
	conf     [256]uint8
	valid    [256]bool
	// scratch is sized to distance at construction and reused across
	// observe calls; callers must consume the returned slice before the
	// next call.
	scratch []uint64
}

func newStridePrefetcher(distance int) *stridePrefetcher {
	return &stridePrefetcher{distance: distance, scratch: make([]uint64, distance)}
}

// observe records an L2 access and returns the VPNs to prefetch: the
// next distance pages along step's stride. The returned slice aliases
// the prefetcher's scratch buffer and is only valid until the next
// observe call.
//
//chirp:hotpath
func (p *stridePrefetcher) observe(pc, vpn uint64) []uint64 {
	st := p.step(pc, vpn)
	if st == 0 {
		return nil
	}
	out := p.scratch
	next := vpn
	for d := range out {
		next += uint64(st)
		out[d] = next
	}
	return out
}

// step records an L2 access and returns the stride to prefetch along,
// or 0 when the access prefetches nothing. A prefetching access's
// fills are vpn + k*stride for k = 1..distance, in that order.
//
//chirp:hotpath
func (p *stridePrefetcher) step(pc, vpn uint64) int64 {
	idx := policy.Mix64(pc>>2) & 0xff
	last, valid := p.lastVPN[idx], p.valid[idx]
	p.lastVPN[idx], p.valid[idx] = vpn, true
	if !valid {
		return 0
	}
	delta := int64(vpn - last)
	if delta == 0 {
		return 0
	}
	if delta == p.stride[idx] {
		if p.conf[idx] < 3 {
			p.conf[idx]++
		}
	} else {
		p.stride[idx] = delta
		if p.conf[idx] > 0 {
			p.conf[idx]--
		}
		return 0
	}
	if p.conf[idx] < 2 {
		return 0
	}
	return p.stride[idx]
}
