package experiments

import (
	"fmt"
	"io"
	"slices"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
)

// timingPlan declares a timing figure: one timing pass of pols under
// scope, reduced by reduce from its rows.
func timingPlan(o Options, scope string, pols []sim.NamedFactory, reduce func(rows []sim.SuiteResult) Result) Plan {
	return Plan{
		Passes: []sim.Pass{{Scope: scope, Config: o.tlbCfg(), Policies: pols, Timing: true}},
		Reduce: func(rows [][]sim.SuiteResult) Result { return reduce(rows[0]) },
	}
}

// speedups returns, per policy of pols, the per-workload ratio of a
// timing pass's IPC at penalty to the "lru" row's (lru must be among
// pols), in suite order, and the workload names in that order.
func speedups(rows []sim.SuiteResult, pols []sim.NamedFactory, penalty uint64) (map[string][]float64, []string) {
	lru := slices.IndexFunc(pols, func(p sim.NamedFactory) bool { return p.Name == "lru" })
	out := map[string][]float64{}
	var names []string
	for w := 0; w < len(rows); w += len(pols) {
		names = append(names, rows[w].Workload)
		base := rows[w+lru].Timing(penalty).IPC
		for j, p := range pols {
			ratio := 0.0
			if base > 0 {
				ratio = rows[w+j].Timing(penalty).IPC / base
			}
			out[p.Name] = append(out[p.Name], ratio)
		}
	}
	return out, names
}

// geoMeanPcts maps each policy to its geometric-mean speedup in
// percent.
func geoMeanPcts(ratios map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	//chirp:allow determinism each key writes only its own geomean, so order cannot escape
	for p, rs := range ratios {
		out[p] = (stats.GeoMean(rs) - 1) * 100
	}
	return out
}

// Fig8Result is the Figure 8 data: per-workload speedup over LRU at a
// 150-cycle walk penalty, with geometric means (§VI-C).
type Fig8Result struct {
	Penalty uint64
	Curve   *stats.SCurve
	// GeoMeanPct maps policy to geometric-mean speedup in percent
	// (paper at 150 cycles: CHiRP 4.80, SRRIP 1.65, GHRP 0.94, Random
	// 0.42, SHiP 0.13).
	GeoMeanPct map[string]float64
	// CHiRPCILo/Hi bound CHiRP's geomean speedup (95% bootstrap CI,
	// percent) — the §VI-G statistical-significance check.
	CHiRPCILo, CHiRPCIHi float64
	Order                []string
}

// Fig8 reproduces Figure 8 (speedup for the suite at WalkPenalty).
func Fig8(o Options) (*Fig8Result, error) { return runPlan[*Fig8Result](o, fig8Plan(o)) }

// fig8Plan declares Figure 8: the paper's six policies in one timing
// pass, scope "fig8". Its cells are Figure 7's, so a merged plan
// serves them from the replay memo.
func fig8Plan(o Options) Plan {
	pols := policies(sim.PaperPolicies...)
	return timingPlan(o, "fig8", pols, func(rows []sim.SuiteResult) Result {
		ratios, names := speedups(rows, pols, o.WalkPenalty)
		res := &Fig8Result{
			Penalty:    o.WalkPenalty,
			Curve:      &stats.SCurve{Labels: names, Series: ratios, Order: "chirp"},
			GeoMeanPct: geoMeanPcts(ratios),
			Order:      sim.PaperPolicies,
		}
		lo, hi := stats.BootstrapCI(ratios["chirp"], 1000, 0.95, 42)
		res.CHiRPCILo, res.CHiRPCIHi = (lo-1)*100, (hi-1)*100
		return res
	})
}

// Write renders the geomean table and the speedup CSV.
func (r *Fig8Result) Write(w io.Writer) error {
	fmt.Fprintf(w, "Figure 8 — speedup over LRU at %d-cycle walk penalty\n", r.Penalty)
	rows := make([][]string, 0, len(r.Order))
	for _, p := range r.Order {
		rows = append(rows, []string{p, fmt.Sprintf("%+.2f%%", r.GeoMeanPct[p])})
	}
	if err := stats.Table(w, []string{"policy", "geomean speedup"}, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "CHiRP 95%% bootstrap CI: [%+.2f%%, %+.2f%%] (§VI-G significance check)\n\n",
		r.CHiRPCILo, r.CHiRPCIHi)
	return r.Curve.WriteCSV(w, r.Order)
}

// Fig10Point is one penalty measurement.
type Fig10Point struct {
	Penalty    uint64
	GeoMeanPct map[string]float64
}

// Fig10Result is the penalty sweep.
type Fig10Result struct {
	Points []Fig10Point
	Order  []string
}

// fig10Penalties are Figure 10's L2 TLB miss penalties, ascending.
var fig10Penalties = []uint64{20, 60, 100, 150, 200, 260, 320, 340}

// Fig10 reproduces Figure 10: average speedup for L2 TLB miss
// penalties from 20 to 340 cycles. The paper's observation: at higher
// latencies predictive policies' advantage grows; CHiRP exceeds 10%
// above ~320 cycles.
//
// The flat walk penalty adds latency and nothing else, so one timing
// pass, under the checkpoint scope "fig10", serves every penalty: each
// row is derived at each penalty (sim.SuiteResult.Timing), giving the
// integers a run at that penalty produces. Checkpoint rows recorded
// under the per-penalty "fig10/penalty=N" scopes of earlier versions,
// or by the multi-unit timing machine, are not reused; those workloads
// rerun.
func Fig10(o Options) (*Fig10Result, error) { return runPlan[*Fig10Result](o, fig10Plan(o)) }

func fig10Plan(o Options) Plan {
	pols := policies(sim.PaperPolicies...)
	return timingPlan(o, "fig10", pols, func(rows []sim.SuiteResult) Result {
		res := &Fig10Result{Order: sim.PaperPolicies}
		for _, penalty := range fig10Penalties {
			ratios, _ := speedups(rows, pols, penalty)
			res.Points = append(res.Points, Fig10Point{Penalty: penalty, GeoMeanPct: geoMeanPcts(ratios)})
		}
		return res
	})
}

// Write renders the sweep, one row per penalty, plus a chart of the
// CHiRP/SRRIP/LRU curves.
func (r *Fig10Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Figure 10 — geomean speedup vs L2 TLB miss penalty")
	header := append([]string{"penalty"}, r.Order...)
	rows := make([][]string, 0, len(r.Points))
	for _, pt := range r.Points {
		row := []string{fmt.Sprintf("%d", pt.Penalty)}
		for _, p := range r.Order {
			row = append(row, fmt.Sprintf("%+.2f%%", pt.GeoMeanPct[p]))
		}
		rows = append(rows, row)
	}
	if err := stats.Table(w, header, rows); err != nil {
		return err
	}
	chart := &stats.LineChart{Series: map[rune][]float64{}}
	for _, pt := range r.Points {
		chart.XLabels = append(chart.XLabels, fmt.Sprintf("%d", pt.Penalty))
		chart.Series['C'] = append(chart.Series['C'], pt.GeoMeanPct["chirp"])
		chart.Series['s'] = append(chart.Series['s'], pt.GeoMeanPct["srrip"])
		chart.Series['g'] = append(chart.Series['g'], pt.GeoMeanPct["ghrp"])
	}
	fmt.Fprintln(w, "\nspeedup %% vs penalty (C=chirp, s=srrip, g=ghrp):")
	return chart.Render(w)
}

// Fig2Point is one history-length measurement.
type Fig2Point struct {
	Length int
	// PathOnlyPct is the geomean speedup of a path-history-only
	// signature of that length.
	PathOnlyPct float64
	// CombinedPct is full CHiRP with that path-history length.
	CombinedPct float64
}

// Fig2Result is the history-length study.
type Fig2Result struct {
	Points []Fig2Point
}

// fig2Lengths are Figure 2's global path-history lengths.
var fig2Lengths = []int{4, 8, 12, 16, 24, 32, 40}

// Fig2 reproduces Figure 2 (§III Observation 3): speedup versus global
// PC history length. A PC-history-only signature stops improving
// around length 15; combining branch histories lets CHiRP exploit
// effective lengths beyond 30.
//
// Every length's path-only and combined CHiRP ride one timing pass
// beside a single LRU, under the checkpoint scope "fig2", so one
// front-end pass per workload serves all fifteen policies. Checkpoint
// rows recorded under the per-length "fig2/len=N" scopes of earlier
// versions, or by the multi-unit timing machine, are not reused; those
// workloads rerun.
func Fig2(o Options) (*Fig2Result, error) { return runPlan[*Fig2Result](o, fig2Plan(o)) }

func fig2Plan(o Options) Plan {
	pols := policies("lru")
	for _, length := range fig2Lengths {
		pathOnly, combined := fig2Variants(length)
		pols = append(pols,
			sim.NamedFactory{Name: fig2Name("path-only", length), New: sim.CHiRPFactory(pathOnly)},
			sim.NamedFactory{Name: fig2Name("combined", length), New: sim.CHiRPFactory(combined)},
		)
	}
	return timingPlan(o, "fig2", pols, func(rows []sim.SuiteResult) Result {
		// speedups orders each policy's ratios by the suite, so the
		// geomean's log-sum is the same on every run.
		ratios, _ := speedups(rows, pols, o.WalkPenalty)
		pct := geoMeanPcts(ratios)
		res := &Fig2Result{}
		for _, length := range fig2Lengths {
			res.Points = append(res.Points, Fig2Point{
				Length:      length,
				PathOnlyPct: pct[fig2Name("path-only", length)],
				CombinedPct: pct[fig2Name("combined", length)],
			})
		}
		return res
	})
}

// fig2Variants returns Figure 2's two CHiRP configurations at one
// global path-history length: path history alone, and combined with
// the conditional and indirect branch histories.
func fig2Variants(length int) (pathOnly, combined core.Config) {
	pathOnly = core.DefaultConfig()
	pathOnly.History.PathLength = length
	pathOnly.UseCondHistory = false
	pathOnly.UseIndirectHistory = false

	combined = core.DefaultConfig()
	combined.History.PathLength = length
	return pathOnly, combined
}

// fig2Name names a Figure 2 signature variant at one history length.
func fig2Name(variant string, length int) string {
	return fmt.Sprintf("%s-%d", variant, length)
}

// Write renders the two curves.
func (r *Fig2Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Figure 2 — speedup vs global PC history length")
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Length),
			fmt.Sprintf("%+.2f%%", p.PathOnlyPct),
			fmt.Sprintf("%+.2f%%", p.CombinedPct),
		})
	}
	if err := stats.Table(w, []string{"history length", "PC history only", "CHiRP (with branch history)"}, rows); err != nil {
		return err
	}
	chart := &stats.LineChart{Series: map[rune][]float64{}}
	for _, p := range r.Points {
		chart.XLabels = append(chart.XLabels, fmt.Sprintf("%d", p.Length))
		chart.Series['p'] = append(chart.Series['p'], p.PathOnlyPct)
		chart.Series['C'] = append(chart.Series['C'], p.CombinedPct)
	}
	fmt.Fprintln(w, "\nspeedup %% vs history length (p=PC-only, C=combined):")
	if err := chart.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper: PC-only plateaus near length 15; the combined signature keeps gaining past 30)")
	return nil
}
