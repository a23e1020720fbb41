package experiments

import (
	"fmt"
	"io"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
)

// timingCfg builds the pipeline configuration for an Options value.
func (o Options) timingCfg(penalty uint64) pipeline.Config {
	return pipeline.DefaultConfig(o.Instructions, penalty)
}

// speedups runs the timing suite for pols and returns, per policy
// name, the per-workload IPC ratios versus the policy named "lru"
// (which must be among pols), in suite order, plus the workload names.
func speedups(o Options, scope string, pols []sim.NamedFactory, penalty uint64) (map[string][]float64, []string, error) {
	ws := o.suite()
	results, err := sim.RunSuiteTimingCtx(o.ctx(), ws, pols, o.timingCfg(penalty), o.suiteOpts(scope))
	if err != nil {
		return nil, nil, err
	}
	ipc := map[string]map[string]float64{} // policy → workload → IPC
	for _, r := range results {
		if ipc[r.Policy] == nil {
			ipc[r.Policy] = map[string]float64{}
		}
		ipc[r.Policy][r.Workload] = r.IPC
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	out := map[string][]float64{}
	for _, p := range pols {
		ratios := make([]float64, len(names))
		for i, wn := range names {
			base := ipc["lru"][wn]
			if base > 0 {
				ratios[i] = ipc[p.Name][wn] / base
			}
		}
		out[p.Name] = ratios
	}
	return out, names, nil
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
func Fig8(o Options) (*Fig8Result, error) {
	pols, err := sim.Factories(sim.PaperPolicies)
	if err != nil {
		return nil, err
	}
	ratios, names, err := speedups(o, "fig8", pols, o.WalkPenalty)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{
		Penalty:    o.WalkPenalty,
		Curve:      &stats.SCurve{Labels: names, Series: ratios, Order: "chirp"},
		GeoMeanPct: map[string]float64{},
		Order:      sim.PaperPolicies,
	}
	//chirp:allow determinism each key writes only its own geomean, so order cannot escape
	for p, rs := range ratios {
		res.GeoMeanPct[p] = (stats.GeoMean(rs) - 1) * 100
	}
	lo, hi := stats.BootstrapCI(ratios["chirp"], 1000, 0.95, 42)
	res.CHiRPCILo, res.CHiRPCIHi = (lo-1)*100, (hi-1)*100
	return res, nil
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

// Fig10 reproduces Figure 10: average speedup for L2 TLB miss
// penalties from 20 to 340 cycles. The paper's observation: at higher
// latencies predictive policies' advantage grows; CHiRP exceeds 10%
// above ~320 cycles.
func Fig10(o Options) (*Fig10Result, error) {
	pols, err := sim.Factories(sim.PaperPolicies)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Order: sim.PaperPolicies}
	for _, penalty := range []uint64{20, 60, 100, 150, 200, 260, 320, 340} {
		ratios, _, err := speedups(o, fmt.Sprintf("fig10/penalty=%d", penalty), pols, penalty)
		if err != nil {
			return nil, err
		}
		pt := Fig10Point{Penalty: penalty, GeoMeanPct: map[string]float64{}}
		//chirp:allow determinism each key writes only its own geomean, so order cannot escape
		for p, rs := range ratios {
			pt.GeoMeanPct[p] = (stats.GeoMean(rs) - 1) * 100
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
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

// Fig2 reproduces Figure 2 (§III Observation 3): speedup versus global
// PC history length. A PC-history-only signature stops improving
// around length 15; combining branch histories lets CHiRP exploit
// effective lengths beyond 30.
func Fig2(o Options) (*Fig2Result, error) {
	res := &Fig2Result{}
	for _, length := range []int{4, 8, 12, 16, 24, 32, 40} {
		pathOnly := core.DefaultConfig()
		pathOnly.History.PathLength = length
		pathOnly.UseCondHistory = false
		pathOnly.UseIndirectHistory = false

		combined := core.DefaultConfig()
		combined.History.PathLength = length

		pols := []sim.NamedFactory{
			{Name: "lru", New: mustFactory("lru")},
			{Name: "path-only", New: sim.CHiRPFactory(pathOnly)},
			{Name: "combined", New: sim.CHiRPFactory(combined)},
		}
		// speedups orders each policy's ratios by the suite, so the
		// geomean's log-sum is the same on every run.
		ratios, _, err := speedups(o, fmt.Sprintf("fig2/len=%d", length), pols, o.WalkPenalty)
		if err != nil {
			return nil, err
		}
		ratio := func(p string) float64 { return (stats.GeoMean(ratios[p]) - 1) * 100 }
		res.Points = append(res.Points, Fig2Point{
			Length:      length,
			PathOnlyPct: ratio("path-only"),
			CombinedPct: ratio("combined"),
		})
	}
	return res, nil
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

func mustFactory(name string) sim.PolicyFactory {
	fs, err := sim.Factories([]string{name})
	if err != nil {
		panic(err)
	}
	return fs[0].New
}
