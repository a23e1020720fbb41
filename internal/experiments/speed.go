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

// timingSuite runs the fused timing suite for pols at the given walk
// penalty under one checkpoint scope and returns its rows plus the
// workload names in suite order.
func timingSuite(o Options, scope string, pols []sim.NamedFactory, penalty uint64) ([]sim.TimingResult, []string, error) {
	ws := o.suite()
	rows, err := sim.RunSuiteTimingCtx(o.ctx(), ws, pols, o.timingCfg(penalty), o.suiteOpts(scope))
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return rows, names, nil
}

// speedups returns, per policy name, the per-workload ratio of ipc(row)
// to the "lru" row's (lru must be among pols), in the order of names.
func speedups(rows []sim.TimingResult, names []string, pols []sim.NamedFactory, ipc func(sim.TimingResult) float64) map[string][]float64 {
	byPolicy := map[string]map[string]float64{} // policy → workload → IPC
	for _, r := range rows {
		if byPolicy[r.Policy] == nil {
			byPolicy[r.Policy] = map[string]float64{}
		}
		byPolicy[r.Policy][r.Workload] = ipc(r)
	}
	out := map[string][]float64{}
	for _, p := range pols {
		ratios := make([]float64, len(names))
		for i, wn := range names {
			base := byPolicy["lru"][wn]
			if base > 0 {
				ratios[i] = byPolicy[p.Name][wn] / base
			}
		}
		out[p.Name] = ratios
	}
	return out
}

// measuredIPC is a row's IPC at the penalty its suite ran with.
func measuredIPC(r sim.TimingResult) float64 { return r.IPC }

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
	pols := policies(sim.PaperPolicies...)
	rows, names, err := timingSuite(o, "fig8", pols, o.WalkPenalty)
	if err != nil {
		return nil, err
	}
	ratios := speedups(rows, names, pols, measuredIPC)
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

// fig10Penalties are Figure 10's L2 TLB miss penalties, ascending.
var fig10Penalties = []uint64{20, 60, 100, 150, 200, 260, 320, 340}

// Fig10 reproduces Figure 10: average speedup for L2 TLB miss
// penalties from 20 to 340 cycles. The paper's observation: at higher
// latencies predictive policies' advantage grows; CHiRP exceeds 10%
// above ~320 cycles.
//
// The flat walk penalty adds latency and nothing else, so a policy's
// post-warmup cycles at penalty P are its cycles at the lowest penalty
// plus its post-warmup L2 TLB misses × the difference (pinned by the
// pipeline's TestTimingCyclesLinearInPenalty). Fig10 therefore runs
// the suite once, at the lowest penalty, under the checkpoint scope
// "fig10", and derives every penalty's IPC from that pass's integer
// cycles: the same integers a run at each penalty would produce.
// Checkpoint rows recorded under the per-penalty "fig10/penalty=N"
// scopes of earlier versions are not reused; those workloads rerun.
func Fig10(o Options) (*Fig10Result, error) {
	pols := policies(sim.PaperPolicies...)
	ran := fig10Penalties[0]
	rows, names, err := timingSuite(o, "fig10", pols, ran)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Order: sim.PaperPolicies}
	for _, penalty := range fig10Penalties {
		extra := penalty - ran
		ratios := speedups(rows, names, pols, func(r sim.TimingResult) float64 {
			if cycles := r.Cycles + r.L2TLBMisses*extra; cycles > 0 {
				return float64(r.Instructions) / float64(cycles)
			}
			return 0
		})
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

// fig2Lengths are Figure 2's global path-history lengths.
var fig2Lengths = []int{4, 8, 12, 16, 24, 32, 40}

// Fig2 reproduces Figure 2 (§III Observation 3): speedup versus global
// PC history length. A PC-history-only signature stops improving
// around length 15; combining branch histories lets CHiRP exploit
// effective lengths beyond 30.
//
// Every length's path-only and combined CHiRP ride one fused suite
// beside a single LRU, under the checkpoint scope "fig2": each L2 unit
// of a fused pass behaves exactly as a solo run, so one front-end pass
// per workload serves all fifteen policies. Checkpoint rows recorded
// under the per-length "fig2/len=N" scopes of earlier versions are not
// reused; those workloads rerun.
func Fig2(o Options) (*Fig2Result, error) {
	pols := policies("lru")
	for _, length := range fig2Lengths {
		pathOnly, combined := fig2Variants(length)
		pols = append(pols,
			sim.NamedFactory{Name: fig2Name("path-only", length), New: sim.CHiRPFactory(pathOnly)},
			sim.NamedFactory{Name: fig2Name("combined", length), New: sim.CHiRPFactory(combined)},
		)
	}
	rows, names, err := timingSuite(o, "fig2", pols, o.WalkPenalty)
	if err != nil {
		return nil, err
	}
	// speedups orders each policy's ratios by the suite, so the
	// geomean's log-sum is the same on every run.
	ratios := speedups(rows, names, pols, measuredIPC)
	ratio := func(p string) float64 { return (stats.GeoMean(ratios[p]) - 1) * 100 }
	res := &Fig2Result{}
	for _, length := range fig2Lengths {
		res.Points = append(res.Points, Fig2Point{
			Length:      length,
			PathOnlyPct: ratio(fig2Name("path-only", length)),
			CombinedPct: ratio(fig2Name("combined", length)),
		})
	}
	return res, nil
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
