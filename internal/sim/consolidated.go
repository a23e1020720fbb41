package sim

import (
	"fmt"

	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// ConsolidatedConfig parameterises a multi-address-space run: several
// workloads time-share one core and its TLB hierarchy, as consolidated
// servers do (the §I motivation: growing footprints and working-set
// pressure). Each workload runs in its own address space (ASID);
// context switches happen every Quantum instructions.
type ConsolidatedConfig struct {
	Hierarchy Hierarchy
	// Quantum is the timeslice in committed instructions.
	Quantum uint64
	// Instructions bounds the total run across all workloads.
	Instructions uint64
	// FlushOnSwitch models hardware without ASID tags: the whole TLB
	// hierarchy is invalidated at every context switch.
	FlushOnSwitch bool
	// WarmupFraction of total instructions before measurement.
	WarmupFraction float64
}

// DefaultConsolidatedConfig time-shares at a 50 k-instruction quantum.
func DefaultConsolidatedConfig(instructions uint64) ConsolidatedConfig {
	return ConsolidatedConfig{
		Hierarchy:      DefaultHierarchy(),
		Quantum:        50_000,
		Instructions:   instructions,
		WarmupFraction: 0.5,
	}
}

// ConsolidatedResult reports one consolidated run.
type ConsolidatedResult struct {
	Policy       string
	Workloads    int
	Switches     uint64
	Instructions uint64 // measured (post-warmup)
	L2Misses     uint64 // post-warmup
	MPKI         float64
	Efficiency   float64
}

// RunConsolidated time-shares the given workloads over one TLB
// hierarchy under l2p. Address spaces are distinguished by ASID, so
// entries survive context switches unless FlushOnSwitch is set.
func RunConsolidated(ws []*workloads.Workload, l2p tlb.Policy, cfg ConsolidatedConfig) (ConsolidatedResult, error) {
	if len(ws) == 0 {
		return ConsolidatedResult{}, fmt.Errorf("sim: no workloads to consolidate")
	}
	if cfg.Instructions == 0 {
		return ConsolidatedResult{}, errZeroBudget
	}
	if len(ws) > 1<<16 {
		return ConsolidatedResult{}, fmt.Errorf("sim: too many workloads for 16-bit ASIDs")
	}
	l1i, err := tlb.New(cfg.Hierarchy.L1I, policy.NewLRU())
	if err != nil {
		return ConsolidatedResult{}, err
	}
	defer l1i.Release()
	l1d, err := tlb.New(cfg.Hierarchy.L1D, policy.NewLRU())
	if err != nil {
		return ConsolidatedResult{}, err
	}
	defer l1d.Release()
	l2, err := tlb.New(cfg.Hierarchy.L2, l2p)
	if err != nil {
		return ConsolidatedResult{}, err
	}
	defer l2.Release()
	bo, hasBO := l2p.(tlb.BranchObserver)

	sources := make([]trace.Source, len(ws))
	for i, w := range ws {
		sources[i] = w.Source() // unbounded; the run bound applies globally
	}
	pageShift := cfg.Hierarchy.L2.PageShift
	warmupAt := uint64(float64(cfg.Instructions) * cfg.WarmupFraction)

	var (
		total     uint64
		switches  uint64
		cur       int
		slice     uint64
		warmStats tlb.Stats
		warmed    = warmupAt == 0
		warmAt    uint64
		rec       trace.Record
	)
	access := func(l1 *tlb.TLB, pc, vpn uint64, asid uint16) {
		a := tlb.Access{PC: pc, VPN: vpn, ASID: asid}
		if _, hit := l1.Lookup(&a); hit {
			return
		}
		a2 := tlb.Access{PC: pc, VPN: vpn, ASID: asid}
		if _, hit := l2.Lookup(&a2); !hit {
			l2.Insert(&a2, vpn)
		}
		l1.Insert(&a, vpn)
	}
	for total < cfg.Instructions {
		if !sources[cur].Next(&rec) {
			break // suite generators are unbounded; defensive only
		}
		total += rec.Instructions()
		slice += rec.Instructions()
		if !warmed && total >= warmupAt {
			warmed = true
			warmStats = l2.Stats()
			warmAt = total
		}
		asid := uint16(cur)
		access(l1i, rec.PC, rec.PC>>pageShift, asid)
		switch {
		case rec.Class.IsMemory():
			access(l1d, rec.PC, rec.EA>>pageShift, asid)
		case rec.Class.IsBranch():
			if hasBO {
				bo.OnBranch(rec.PC,
					rec.Class == trace.ClassCondBranch,
					rec.Class == trace.ClassUncondIndirect,
					rec.Taken, rec.Target)
			}
		}
		if slice >= cfg.Quantum {
			slice = 0
			switches++
			cur = (cur + 1) % len(sources)
			if cfg.FlushOnSwitch {
				l1i.Flush()
				l1d.Flush()
				l2.Flush()
			}
		}
	}
	if !warmed {
		return ConsolidatedResult{}, fmt.Errorf("sim: consolidated run ended before warmup")
	}
	l2.FlushAccounting()
	st := l2.Stats()
	res := ConsolidatedResult{
		Policy:       l2p.Name(),
		Workloads:    len(ws),
		Switches:     switches,
		Instructions: total - warmAt,
		L2Misses:     st.Misses - warmStats.Misses,
		Efficiency:   st.Efficiency(),
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.L2Misses) / (float64(res.Instructions) / 1000)
	}
	return res, nil
}
