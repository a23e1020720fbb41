package mixed

import (
	"fmt"

	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// HugeThresholdPages classifies workload regions: data regions at
// least this many 4 KB pages are considered 2 MB-backed in the
// mixed-size experiment (an OS that promotes large allocations, as THP
// does).
const HugeThresholdPages = 2048

// classifier marks which 4 KB VPNs are backed by 2 MB pages.
type classifier struct {
	ranges [][2]uint64 // [base4k, end4k)
}

func newClassifier(prog *workloads.Program) *classifier {
	c := &classifier{}
	if prog == nil {
		// Composite (multi-tenant) workloads have no single program;
		// without region bounds everything stays 4 KB-backed.
		return c
	}
	for _, r := range prog.Regions {
		if r.Pages >= HugeThresholdPages {
			c.ranges = append(c.ranges, [2]uint64{r.BasePage, r.BasePage + r.Pages})
		}
	}
	return c
}

func (c *classifier) sizeOf(vpn4k uint64) Size {
	for _, rg := range c.ranges {
		if vpn4k >= rg[0] && vpn4k < rg[1] {
			return Size2M
		}
	}
	return Size4K
}

// Result reports one mixed-size run.
type Result struct {
	Policy       string
	Instructions uint64
	MPKI         float64
	Stats        Stats
	// ReachLostPerKI is the reach-weighted cost metric: 4 KB-page
	// equivalents of live reach evicted per kilo-instruction.
	ReachLostPerKI float64
	HugeShare      float64 // fraction of L2 accesses that were 2 MB-backed
}

// branchObserver mirrors tlb.BranchObserver for mixed policies.
type branchObserver interface {
	OnBranch(pc uint64, conditional, indirect, taken bool, target uint64)
}

// Run drives a workload through L1 TLBs (LRU) and the mixed-size L2
// under p. Regions of HugeThresholdPages or more are 2 MB-backed.
func Run(w *workloads.Workload, p Policy, instructions uint64) (Result, error) {
	cls := newClassifier(w.Program())
	src := trace.NewLimit(w.Source(), instructions)

	l1i, err := tlb.New(tlb.Config{Name: "L1I", Entries: 64, Ways: 8, PageShift: 12}, policy.NewLRU())
	if err != nil {
		return Result{}, err
	}
	defer l1i.Release()
	l1d, err := tlb.New(tlb.Config{Name: "L1D", Entries: 64, Ways: 8, PageShift: 12}, policy.NewLRU())
	if err != nil {
		return Result{}, err
	}
	defer l1d.Release()
	l2, err := New(1024, 8, p)
	if err != nil {
		return Result{}, err
	}
	AttachTLB(l2)
	bo, hasBO := p.(branchObserver)

	var (
		instr   uint64
		hugeAcc uint64
		rec     trace.Record
	)
	access := func(l1 *tlb.TLB, pc, va uint64) {
		vpn4k := va >> PageShift4K
		size := cls.sizeOf(vpn4k)
		// L1 entries cover the mapping's full span: key them at the
		// mapping granularity, tagged by size so the two spaces never
		// collide.
		l1key := vpn4k
		if size == Size2M {
			l1key = vpn4k>>9 | 1<<62
		}
		a1 := tlb.Access{PC: pc, VPN: l1key}
		if _, hit := l1.Lookup(&a1); hit {
			return
		}
		a2 := Access{PC: pc, VPN4K: vpn4k, Size: size}
		if size == Size2M {
			hugeAcc++
		}
		if !l2.Lookup(&a2) {
			l2.Insert(&a2)
		}
		l1.Insert(&a1, 1)
	}
	for src.Next(&rec) {
		instr += rec.Instructions()
		access(l1i, rec.PC, rec.PC)
		switch {
		case rec.Class.IsMemory():
			access(l1d, rec.PC, rec.EA)
		case rec.Class.IsBranch():
			if hasBO {
				bo.OnBranch(rec.PC,
					rec.Class == trace.ClassCondBranch,
					rec.Class == trace.ClassUncondIndirect,
					rec.Taken, rec.Target)
			}
		}
	}
	st := l2.Stats()
	res := Result{
		Policy:       p.Name(),
		Instructions: instr,
		Stats:        st,
	}
	if instr > 0 {
		res.MPKI = float64(st.Misses) / (float64(instr) / 1000)
		res.ReachLostPerKI = float64(st.ReachLostPages) / (float64(instr) / 1000)
	}
	if st.Accesses > 0 {
		res.HugeShare = float64(hugeAcc) / float64(st.Accesses)
	}
	return res, nil
}

// CompareOnSuite runs the mixed-size comparison (LRU vs cost-aware
// CHiRP) over the first n of candidates that actually have 2 MB-backed
// regions, and returns rows of results. A candidate with no program
// model (a composite multi-tenant workload or a trace file) has no
// region bounds to classify pages by, so it is an error naming it.
func CompareOnSuite(candidates []*workloads.Workload, n int, instructions uint64, mkPolicies func() []Policy) ([][]Result, error) {
	var rows [][]Result
	for _, w := range candidates {
		if len(rows) >= n {
			break
		}
		prog := w.Program()
		if prog == nil {
			return nil, fmt.Errorf("mixed: %s has no program model, so its 2 MB-backed regions are unknown", w.Name)
		}
		if len(newClassifier(prog).ranges) == 0 {
			continue
		}
		var row []Result
		for _, p := range mkPolicies() {
			r, err := Run(w, p, instructions)
			if err != nil {
				return nil, fmt.Errorf("mixed: %s/%s: %w", w.Name, p.Name(), err)
			}
			row = append(row, r)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
