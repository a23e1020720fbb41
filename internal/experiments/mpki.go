package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
)

// Fig7Result is the Figure 7 data: the MPKI S-curve over the suite for
// every policy, plus the §VI-A averages.
type Fig7Result struct {
	Curve    *stats.SCurve
	Averages []PolicyAverages
	// BestReductionPct is the largest per-benchmark MPKI reduction
	// CHiRP achieves (paper: 58.93%).
	BestReductionPct float64
}

// Fig7 reproduces Figure 7 (MPKI comparison of the six policies, §VI-A).
func Fig7(o Options) (*Fig7Result, error) {
	byPolicy, ws, err := suiteMPKI(o, "fig7", sim.PaperPolicies)
	if err != nil {
		return nil, err
	}
	curve := &stats.SCurve{
		Labels: make([]string, len(ws)),
		Series: map[string][]float64{},
		Order:  "lru",
	}
	for i, w := range ws {
		curve.Labels[i] = w.Name
	}
	for name, rs := range byPolicy {
		vals := make([]float64, len(ws))
		for i, r := range rs {
			vals[i] = r.MPKI
		}
		curve.Series[name] = vals
	}
	res := &Fig7Result{Curve: curve, Averages: averages(byPolicy, sim.PaperPolicies)}
	for i := range ws {
		lru := curve.Series["lru"][i]
		ch := curve.Series["chirp"][i]
		if lru > 0.05 { // ignore near-zero-MPKI head
			if red := stats.Reduction(lru, ch); red > res.BestReductionPct {
				res.BestReductionPct = red
			}
		}
	}
	return res, nil
}

// Write renders the averages table and the S-curve CSV.
func (r *Fig7Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Figure 7 — MPKI over the suite (S-curve ordered by LRU)")
	if err := writeAverages(w, r.Averages); err != nil {
		return err
	}
	fmt.Fprintf(w, "best per-benchmark CHiRP reduction: %.2f%% (paper: 58.93%%)\n\n", r.BestReductionPct)
	return r.Curve.WriteCSV(w, sim.PaperPolicies)
}

// Fig1Result is the Figure 1 data: per-benchmark TLB efficiency per
// policy (scaled by LRU), and the §VI-D average efficiency gains.
type Fig1Result struct {
	Labels []string
	// Rows maps policy to per-benchmark efficiency (absolute).
	Rows map[string][]float64
	// AvgGainPct maps policy to average efficiency gain over LRU
	// (paper: CHiRP 8.07, Random 3.10, GHRP 2.92, SRRIP 2.84, SHiP
	// 1.85).
	AvgGainPct map[string]float64
	Order      []string
}

// Fig1 reproduces Figure 1 / §VI-D (TLB efficiency heat map).
func Fig1(o Options) (*Fig1Result, error) {
	byPolicy, ws, err := suiteMPKI(o, "fig1", sim.PaperPolicies)
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{
		Labels:     make([]string, len(ws)),
		Rows:       map[string][]float64{},
		AvgGainPct: map[string]float64{},
		Order:      sim.PaperPolicies,
	}
	for i, w := range ws {
		res.Labels[i] = w.Name
	}
	lruEffs := collect(byPolicy["lru"], func(r sim.SuiteResult) float64 { return r.Efficiency })
	baseMean := stats.Mean(lruEffs)
	for name, rs := range byPolicy {
		effs := collect(rs, func(r sim.SuiteResult) float64 { return r.Efficiency })
		res.Rows[name] = effs
		res.AvgGainPct[name] = (stats.Mean(effs) - baseMean) / baseMean * 100
	}
	return res, nil
}

// Write renders the heat map (one row per benchmark, sorted by LRU
// efficiency as the paper does) and the average-gain table.
func (r *Fig1Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Figure 1 — TLB efficiency heat map (lighter = more efficient)")
	rows := make([][]string, 0, len(r.Order))
	for _, p := range r.Order {
		rows = append(rows, []string{p, fmt.Sprintf("%+.2f%%", r.AvgGainPct[p])})
	}
	if err := stats.Table(w, []string{"policy", "avg efficiency vs LRU"}, rows); err != nil {
		return err
	}
	// Sort benchmarks by LRU efficiency, ascending (paper: "sorted from
	// low to high cache efficiency").
	idx := make([]int, len(r.Labels))
	for i := range idx {
		idx[i] = i
	}
	lru := r.Rows["lru"]
	sort.SliceStable(idx, func(a, b int) bool { return lru[idx[a]] < lru[idx[b]] })
	fmt.Fprintf(w, "\n%-14s %s\n", "benchmark", "efficiency per policy (order:")
	fmt.Fprintf(w, "%-14s %v)\n", "", r.Order)
	for _, i := range idx {
		vals := make([]float64, len(r.Order))
		for j, p := range r.Order {
			vals[j] = r.Rows[p][i]
		}
		fmt.Fprintf(w, "%-14s %s\n", r.Labels[i], stats.HeatRow(vals))
	}
	return nil
}

// Fig6Variant is one rung of the Figure 6 ablation ladder.
type Fig6Variant struct {
	Name         string
	Description  string
	MeanMPKI     float64
	ReductionPct float64
	// PaperPct is the reduction the paper reports for the comparable
	// configuration.
	PaperPct float64
}

// Fig6Result is the ablation ladder.
type Fig6Result struct {
	Variants []Fig6Variant
}

// Fig6 reproduces Figure 6 (§III): the effect of each feature,
// input transform and update-policy optimisation on MPKI reduction.
func Fig6(o Options) (*Fig6Result, error) {
	// Nine suite passes over one trace budget: share one stream cache
	// so each workload is generated and L1-filtered once, not nine
	// times.
	o, done := o.withCache()
	defer done()
	ws := o.suite()
	cfg := o.tlbCfg()

	type variant struct {
		name, desc string
		paper      float64
		factory    sim.PolicyFactory
	}
	chirpCfg := func(mut func(*core.Config)) sim.PolicyFactory {
		c := core.DefaultConfig()
		mut(&c)
		return sim.CHiRPFactory(c)
	}
	lruF, _ := sim.Factories([]string{"lru"})
	shipF, _ := sim.Factories([]string{"ship"})
	shipU, _ := sim.Factories([]string{"ship-unlimited"})
	shipS, _ := sim.Factories([]string{"ship-sampled"})

	variants := []variant{
		{"ship", "PC-only signature (SHiP, §III)", 0.88, shipF[0].New},
		{"ship-unlimited", "SHiP with an unaliased prediction table", 0.63, shipU[0].New},
		{"ship-sampled", "SHiP predicting a subset of sets", 1.28, shipS[0].New},
		{"chirp-pc", "CHiRP update policy, PC-only signature (selective hit update)", 5.85, chirpCfg(func(c *core.Config) {
			c.UsePathHistory, c.UseCondHistory, c.UseIndirectHistory = false, false, false
		})},
		{"chirp-path", "+ global path history of PC bits", 15.0, chirpCfg(func(c *core.Config) {
			c.UseCondHistory, c.UseIndirectHistory = false, false
		})},
		{"chirp-path-cond", "+ conditional branch address history", 23.88, chirpCfg(func(c *core.Config) {
			c.UseIndirectHistory = false
			c.History.PathLeadingZeros = false
		})},
		{"chirp-lz", "+ leading-zero shift-and-scale", 26.98, chirpCfg(func(c *core.Config) {
			c.UseIndirectHistory = false
		})},
		{"chirp", "full CHiRP (+ indirect branch history)", 28.21, sim.CHiRPFactory(core.DefaultConfig())},
	}

	lruRes, err := sim.RunSuiteTLBOnlyCtx(o.ctx(), ws, lruF, cfg, o.suiteOpts("fig6"))
	if err != nil {
		return nil, err
	}
	base := stats.Mean(collect(lruRes, func(r sim.SuiteResult) float64 { return r.MPKI }))

	res := &Fig6Result{}
	for _, v := range variants {
		rs, err := sim.RunSuiteTLBOnlyCtx(o.ctx(), ws, []sim.NamedFactory{{Name: v.name, New: v.factory}}, cfg, o.suiteOpts("fig6"))
		if err != nil {
			return nil, err
		}
		m := stats.Mean(collect(rs, func(r sim.SuiteResult) float64 { return r.MPKI }))
		res.Variants = append(res.Variants, Fig6Variant{
			Name: v.name, Description: v.desc,
			MeanMPKI: m, ReductionPct: stats.Reduction(base, m), PaperPct: v.paper,
		})
	}
	return res, nil
}

// Write renders the ladder.
func (r *Fig6Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Figure 6 — feature/optimisation ablation (avg MPKI reduction vs LRU)")
	rows := make([][]string, 0, len(r.Variants))
	for _, v := range r.Variants {
		rows = append(rows, []string{
			v.Name,
			fmt.Sprintf("%+.2f%%", v.ReductionPct),
			fmt.Sprintf("%+.2f%%", v.PaperPct),
			v.Description,
		})
	}
	return stats.Table(w, []string{"variant", "measured", "paper", "description"}, rows)
}

// Fig9Point is one prediction-table budget measurement.
type Fig9Point struct {
	Bytes        int
	Entries      int
	MeanMPKI     float64
	ReductionPct float64
}

// Fig9Result is the table-size sweep.
type Fig9Result struct {
	Points []Fig9Point
}

// Fig9 reproduces Figure 9 (§VI-F): CHiRP MPKI improvement over LRU
// for prediction-table budgets from 128 B to 8 KB (2-bit counters).
func Fig9(o Options) (*Fig9Result, error) {
	// Eight suite passes (LRU base + seven budgets) share captures.
	o, done := o.withCache()
	defer done()
	ws := o.suite()
	cfg := o.tlbCfg()
	lruF, _ := sim.Factories([]string{"lru"})
	lruRes, err := sim.RunSuiteTLBOnlyCtx(o.ctx(), ws, lruF, cfg, o.suiteOpts("fig9"))
	if err != nil {
		return nil, err
	}
	base := stats.Mean(collect(lruRes, func(r sim.SuiteResult) float64 { return r.MPKI }))

	res := &Fig9Result{}
	for _, bytes := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
		entries := bytes * 8 / 2 // 2-bit counters
		c := core.DefaultConfig()
		c.TableEntries = entries
		rs, err := sim.RunSuiteTLBOnlyCtx(o.ctx(), ws, []sim.NamedFactory{{Name: "chirp", New: sim.CHiRPFactory(c)}}, cfg, o.suiteOpts(fmt.Sprintf("fig9/%dB", bytes)))
		if err != nil {
			return nil, err
		}
		m := stats.Mean(collect(rs, func(r sim.SuiteResult) float64 { return r.MPKI }))
		res.Points = append(res.Points, Fig9Point{
			Bytes: bytes, Entries: entries,
			MeanMPKI: m, ReductionPct: stats.Reduction(base, m),
		})
	}
	return res, nil
}

// Write renders the sweep with proportional bars.
func (r *Fig9Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Figure 9 — CHiRP MPKI improvement over LRU vs prediction-table size")
	max := 0.0
	for _, p := range r.Points {
		if p.ReductionPct > max {
			max = p.ReductionPct
		}
	}
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%dB", p.Bytes),
			fmt.Sprintf("%d", p.Entries),
			fmt.Sprintf("%+.2f%%", p.ReductionPct),
			stats.Bar(p.ReductionPct, max, 30),
		})
	}
	return stats.Table(w, []string{"budget", "counters", "MPKI vs LRU", ""}, rows)
}

// Fig11Result is the Figure 11 data: the distribution of
// prediction-table accesses per TLB access for the table-based
// policies.
type Fig11Result struct {
	Densities []stats.Density
}

// Fig11 reproduces Figure 11 (§VI-B): CHiRP touches its table on
// ~10% of TLB accesses, SHiP and GHRP on (over) 100%.
func Fig11(o Options) (*Fig11Result, error) {
	byPolicy, _, err := suiteMPKI(o, "fig11", []string{"ship", "ghrp", "chirp"})
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	for _, name := range []string{"ship", "ghrp", "chirp"} {
		rates := collect(byPolicy[name], func(r sim.SuiteResult) float64 { return r.TableAccessRate })
		res.Densities = append(res.Densities, stats.Summarize(name, rates))
	}
	return res, nil
}

// Write renders the density summary table.
func (r *Fig11Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Figure 11 — prediction-table accesses per TLB access")
	rows := make([][]string, 0, len(r.Densities))
	for _, d := range r.Densities {
		rows = append(rows, []string{
			d.Name,
			fmt.Sprintf("%.3f", d.Mean),
			fmt.Sprintf("%.3f", d.StdDev),
			fmt.Sprintf("%.3f", d.P10),
			fmt.Sprintf("%.3f", d.P50),
			fmt.Sprintf("%.3f", d.P90),
			fmt.Sprintf("%.3f", d.Max),
		})
	}
	if err := stats.Table(w, []string{"policy", "mean", "stddev", "p10", "p50", "p90", "max"}, rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper: CHiRP mean 10.14% with low variance; SHiP/GHRP ≈100%+ with high variance)")
	return nil
}

// OptResult is the extension X1 data: the Bélády upper bound.
type OptResult struct {
	Averages []PolicyAverages
	// OptMeanMPKI and OptReductionPct position the offline optimum.
	OptMeanMPKI     float64
	OptReductionPct float64
}

// OptBound runs LRU, CHiRP and the offline OPT oracle over a suite
// subset, quantifying how much of the optimal headroom CHiRP captures.
func OptBound(o Options) (*OptResult, error) {
	// One cache serves the lru/chirp suite pass AND the oracle jobs:
	// the capture that replayed lru and chirp also yields the VPN
	// sequence OPT's oracle needs and the access view its run walks
	// (one view build serves both), so each workload's trace is
	// generated exactly once.
	o, done := o.withCache()
	defer done()
	ws := o.suite()
	cfg := o.tlbCfg()
	byPolicy, _, err := suiteMPKI(o, "opt", []string{"lru", "chirp"})
	if err != nil {
		return nil, err
	}
	res := &OptResult{Averages: averages(byPolicy, []string{"lru", "chirp"})}

	// The oracle runs are engine jobs too; they gain the most from the
	// worker pool — and from checkpointing.
	jobs := make([]engine.Job[float64], 0, len(ws))
	for _, w := range ws {
		w := w
		jobs = append(jobs, engine.Job[float64]{
			Key: engine.Key{Scope: "opt", Workload: w.Name, Policy: "opt"},
			Run: func(ctx context.Context) (float64, error) {
				r, err := sim.RunOPT(ctx, sim.RunSpec{Workload: w, Config: cfg, Cache: o.StreamCache})
				return r.MPKI, err
			},
		})
	}
	optMPKI, err := engine.Run(o.ctx(), jobs, engine.Config{Workers: o.Workers, Sink: o.Sink, Checkpoint: o.Checkpoint})
	if err != nil {
		return nil, err
	}
	res.OptMeanMPKI = stats.Mean(optMPKI)
	res.OptReductionPct = stats.Reduction(res.Averages[0].MeanMPKI, res.OptMeanMPKI)
	return res, nil
}

// Write renders the bound.
func (r *OptResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Extension X1 — Bélády OPT upper bound")
	if err := writeAverages(w, r.Averages); err != nil {
		return err
	}
	fmt.Fprintf(w, "opt     %.3f  %+.2f%% (offline optimum)\n", r.OptMeanMPKI, r.OptReductionPct)
	chirpRed := r.Averages[1].ReductionPct
	if r.OptReductionPct > 0 {
		fmt.Fprintf(w, "CHiRP captures %.1f%% of the optimal headroom\n", chirpRed/r.OptReductionPct*100)
	}
	return nil
}

// BaselinesResult is the extension X3 data: the paper's comparison
// extended with SDBP (set sampling — §II-B's negative result), DRRIP
// and perceptron-based reuse prediction.
type BaselinesResult struct {
	Averages []PolicyAverages
}

// Baselines runs the extended baseline comparison.
func Baselines(o Options) (*BaselinesResult, error) {
	byPolicy, _, err := suiteMPKI(o, "baselines", sim.ExtendedPolicies)
	if err != nil {
		return nil, err
	}
	return &BaselinesResult{Averages: averages(byPolicy, sim.ExtendedPolicies)}, nil
}

// Write renders the comparison.
func (r *BaselinesResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Extension X3 — extended baseline comparison (adds SDBP, DRRIP, perceptron)")
	if err := writeAverages(w, r.Averages); err != nil {
		return err
	}
	fmt.Fprintln(w, "(§II-B predicts SDBP's set sampling does not generalise to TLBs)")
	return nil
}

// CategoryResult is the per-category breakdown of the Figure 7
// comparison — the paper's §V lists the trace categories; this view
// shows where each policy's gains come from.
type CategoryResult struct {
	Categories []CategoryRow
	Order      []string
}

// CategoryRow is one workload family.
type CategoryRow struct {
	Category string
	Count    int
	// MeanMPKI maps policy → mean MPKI within the category.
	MeanMPKI map[string]float64
	// ReductionPct maps policy → reduction vs the category's LRU mean.
	ReductionPct map[string]float64
}

// Categories runs the paper's six policies and reduces per category.
func Categories(o Options) (*CategoryResult, error) {
	byPolicy, ws, err := suiteMPKI(o, "categories", sim.PaperPolicies)
	if err != nil {
		return nil, err
	}
	byCat := map[string]map[string][]float64{} // category → policy → MPKIs
	for _, name := range sim.PaperPolicies {
		for i, r := range byPolicy[name] {
			cat := ws[i].Category
			if byCat[cat] == nil {
				byCat[cat] = map[string][]float64{}
			}
			byCat[cat][name] = append(byCat[cat][name], r.MPKI)
		}
	}
	res := &CategoryResult{Order: sim.PaperPolicies}
	for _, cat := range workloadCategories() {
		m := byCat[cat]
		if m == nil {
			continue
		}
		row := CategoryRow{
			Category:     cat,
			Count:        len(m["lru"]),
			MeanMPKI:     map[string]float64{},
			ReductionPct: map[string]float64{},
		}
		base := stats.Mean(m["lru"])
		for _, p := range sim.PaperPolicies {
			mean := stats.Mean(m[p])
			row.MeanMPKI[p] = mean
			row.ReductionPct[p] = stats.Reduction(base, mean)
		}
		res.Categories = append(res.Categories, row)
	}
	return res, nil
}

// Write renders one row per category.
func (r *CategoryResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Per-category MPKI (mean) and reduction vs category LRU")
	header := []string{"category", "n", "lru"}
	for _, p := range r.Order {
		if p != "lru" {
			header = append(header, p)
		}
	}
	rows := make([][]string, 0, len(r.Categories))
	for _, row := range r.Categories {
		cells := []string{row.Category, fmt.Sprintf("%d", row.Count), fmt.Sprintf("%.3f", row.MeanMPKI["lru"])}
		for _, p := range r.Order {
			if p == "lru" {
				continue
			}
			cells = append(cells, fmt.Sprintf("%.2f (%+.0f%%)", row.MeanMPKI[p], row.ReductionPct[p]))
		}
		rows = append(rows, cells)
	}
	return stats.Table(w, header, rows)
}

// workloadCategories avoids importing workloads here for one slice.
func workloadCategories() []string {
	return []string{"spec", "db", "crypto", "sci", "web", "bigdata", "ml", "osmix"}
}
