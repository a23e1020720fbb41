package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/workloads"
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
func Fig7(o Options) (*Fig7Result, error) { return runPlan[*Fig7Result](o, fig7Plan(o)) }

// fig7Plan declares Figure 7: the paper's six policies in one pass,
// scope "fig7".
func fig7Plan(o Options) Plan {
	return Plan{
		Passes: []sim.Pass{{Scope: "fig7", Config: o.tlbCfg(), Policies: policies(sim.PaperPolicies...)}},
		Reduce: reduceFig7,
	}
}

func reduceFig7(rows [][]sim.SuiteResult) Result {
	byPolicy := indexByPolicy(rows[0])
	curve := &stats.SCurve{
		Labels: workloadNames(byPolicy["lru"]),
		Series: map[string][]float64{},
		Order:  "lru",
	}
	//chirp:allow determinism each key writes only its own series, so order cannot escape
	for name, rs := range byPolicy {
		curve.Series[name] = collect(rs, func(r sim.SuiteResult) float64 { return r.MPKI })
	}
	res := &Fig7Result{Curve: curve, Averages: averages(byPolicy, sim.PaperPolicies)}
	for i := range curve.Labels {
		lru := curve.Series["lru"][i]
		ch := curve.Series["chirp"][i]
		if lru > 0.05 { // ignore near-zero-MPKI head
			if red := stats.Reduction(lru, ch); red > res.BestReductionPct {
				res.BestReductionPct = red
			}
		}
	}
	return res
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
func Fig1(o Options) (*Fig1Result, error) { return runPlan[*Fig1Result](o, fig1Plan(o)) }

// fig1Plan declares Figure 1: the paper's six policies in one pass,
// scope "fig1".
func fig1Plan(o Options) Plan {
	return Plan{
		Passes: []sim.Pass{{Scope: "fig1", Config: o.tlbCfg(), Policies: policies(sim.PaperPolicies...)}},
		Reduce: reduceFig1,
	}
}

func reduceFig1(rows [][]sim.SuiteResult) Result {
	byPolicy := indexByPolicy(rows[0])
	res := &Fig1Result{
		Labels:     workloadNames(byPolicy["lru"]),
		Rows:       map[string][]float64{},
		AvgGainPct: map[string]float64{},
		Order:      sim.PaperPolicies,
	}
	lruEffs := collect(byPolicy["lru"], func(r sim.SuiteResult) float64 { return r.Efficiency })
	baseMean := stats.Mean(lruEffs)
	//chirp:allow determinism each key writes only its own row and gain, so order cannot escape
	for name, rs := range byPolicy {
		effs := collect(rs, func(r sim.SuiteResult) float64 { return r.Efficiency })
		res.Rows[name] = effs
		res.AvgGainPct[name] = (stats.Mean(effs) - baseMean) / baseMean * 100
	}
	return res
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
// LRU and every rung share one configuration, so they ride one suite
// pass under the checkpoint scope "fig6".
func Fig6(o Options) (*Fig6Result, error) { return runPlan[*Fig6Result](o, fig6Plan(o)) }

func fig6Plan(o Options) Plan {
	variants := fig6Variants()
	pols := policies("lru")
	for _, v := range variants {
		pols = append(pols, sim.NamedFactory{Name: v.name, New: v.factory})
	}
	return Plan{
		Passes: []sim.Pass{{Scope: "fig6", Config: o.tlbCfg(), Policies: pols}},
		Reduce: func(rows [][]sim.SuiteResult) Result {
			byPolicy := indexByPolicy(rows[0])
			base := meanMPKI(byPolicy["lru"])
			res := &Fig6Result{}
			for _, v := range variants {
				m := meanMPKI(byPolicy[v.name])
				res.Variants = append(res.Variants, Fig6Variant{
					Name: v.name, Description: v.desc,
					MeanMPKI: m, ReductionPct: stats.Reduction(base, m), PaperPct: v.paper,
				})
			}
			return res
		},
	}
}

// fig6Variant is one rung's configuration: its name, what it adds,
// the paper's reduction and the policy.
type fig6Variant struct {
	name, desc string
	paper      float64
	factory    sim.PolicyFactory
}

// fig6Variants returns the Figure 6 ladder, bottom rung first.
func fig6Variants() []fig6Variant {
	chirpCfg := func(mut func(*core.Config)) sim.PolicyFactory {
		c := core.DefaultConfig()
		mut(&c)
		return sim.CHiRPFactory(c)
	}
	return []fig6Variant{
		{"ship", "PC-only signature (SHiP, §III)", 0.88, mustFactory("ship")},
		{"ship-unlimited", "SHiP with an unaliased prediction table", 0.63, mustFactory("ship-unlimited")},
		{"ship-sampled", "SHiP predicting a subset of sets", 1.28, mustFactory("ship-sampled")},
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
// LRU and the seven budgets (named "chirp-128B" … "chirp-8192B") ride
// one suite pass under the checkpoint scope "fig9".
func Fig9(o Options) (*Fig9Result, error) { return runPlan[*Fig9Result](o, fig9Plan(o)) }

func fig9Plan(o Options) Plan {
	var points []Fig9Point
	pols := policies("lru")
	for _, bytes := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
		entries := bytes * 8 / 2 // 2-bit counters
		points = append(points, Fig9Point{Bytes: bytes, Entries: entries})
		c := core.DefaultConfig()
		c.TableEntries = entries
		pols = append(pols, sim.NamedFactory{Name: fmt.Sprintf("chirp-%dB", bytes), New: sim.CHiRPFactory(c)})
	}
	return Plan{
		Passes: []sim.Pass{{Scope: "fig9", Config: o.tlbCfg(), Policies: pols}},
		Reduce: func(rows [][]sim.SuiteResult) Result {
			byPolicy := indexByPolicy(rows[0])
			base := meanMPKI(byPolicy["lru"])
			res := &Fig9Result{Points: slices.Clone(points)}
			for i := range res.Points {
				p := &res.Points[i]
				p.MeanMPKI = meanMPKI(byPolicy[pols[i+1].Name])
				p.ReductionPct = stats.Reduction(base, p.MeanMPKI)
			}
			return res
		},
	}
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
func Fig11(o Options) (*Fig11Result, error) { return runPlan[*Fig11Result](o, fig11Plan(o)) }

func fig11Plan(o Options) Plan {
	names := []string{"ship", "ghrp", "chirp"}
	return Plan{
		Passes: []sim.Pass{{Scope: "fig11", Config: o.tlbCfg(), Policies: policies(names...)}},
		Reduce: func(rows [][]sim.SuiteResult) Result {
			byPolicy := indexByPolicy(rows[0])
			res := &Fig11Result{}
			for _, name := range names {
				rates := collect(byPolicy[name], func(r sim.SuiteResult) float64 { return r.TableAccessRate })
				res.Densities = append(res.Densities, stats.Summarize(name, rates))
			}
			return res
		},
	}
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
// The oracle rides the LRU/CHiRP pass (scope "opt"): the stream that
// replays them also yields the VPN sequence OPT's oracle needs and the
// access view its run walks, so each workload's trace is generated
// once.
func OptBound(o Options) (*OptResult, error) { return runPlan[*OptResult](o, optPlan(o)) }

func optPlan(o Options) Plan {
	return Plan{
		Passes: []sim.Pass{{Scope: "opt", Config: o.tlbCfg(), Policies: policies("lru", "chirp"), OPT: true}},
		Reduce: func(rows [][]sim.SuiteResult) Result {
			byPolicy := indexByPolicy(rows[0])
			res := &OptResult{Averages: averages(byPolicy, []string{"lru", "chirp"})}
			res.OptMeanMPKI = meanMPKI(byPolicy["opt"])
			res.OptReductionPct = stats.Reduction(res.Averages[0].MeanMPKI, res.OptMeanMPKI)
			return res
		},
	}
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
	return runPlan[*BaselinesResult](o, baselinesPlan(o))
}

func baselinesPlan(o Options) Plan {
	return Plan{
		Passes: []sim.Pass{{Scope: "baselines", Config: o.tlbCfg(), Policies: policies(sim.ExtendedPolicies...)}},
		Reduce: func(rows [][]sim.SuiteResult) Result {
			return &BaselinesResult{Averages: averages(indexByPolicy(rows[0]), sim.ExtendedPolicies)}
		},
	}
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
	return runPlan[*CategoryResult](o, categoriesPlan(o))
}

func categoriesPlan(o Options) Plan {
	return Plan{
		Passes: []sim.Pass{{Scope: "categories", Config: o.tlbCfg(), Policies: policies(sim.PaperPolicies...)}},
		Reduce: reduceCategories,
	}
}

func reduceCategories(rows [][]sim.SuiteResult) Result {
	byPolicy := indexByPolicy(rows[0])
	byCat := map[string]map[string][]float64{} // category → policy → MPKIs
	for _, name := range sim.PaperPolicies {
		for _, r := range byPolicy[name] {
			cat := r.Category
			if byCat[cat] == nil {
				byCat[cat] = map[string][]float64{}
			}
			byCat[cat][name] = append(byCat[cat][name], r.MPKI)
		}
	}
	// Built-in categories first, in their fixed order; then any other
	// (spec-defined) category in order of first appearance.
	cats := slices.Clone(workloads.Categories)
	for _, r := range byPolicy["lru"] {
		if !slices.Contains(cats, r.Category) {
			cats = append(cats, r.Category)
		}
	}
	res := &CategoryResult{Order: sim.PaperPolicies}
	for _, cat := range cats {
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
	return res
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
