package experiments

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/pipeline"

	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/trace"
)

// geomeanPcts is each policy's geomean speedup over "lru", in
// percent, from timing rows in workload-major, pols-minor order.
func geomeanPcts(rows []sim.TimingResult, pols []sim.NamedFactory) map[string]float64 {
	lru := slices.IndexFunc(pols, func(p sim.NamedFactory) bool { return p.Name == "lru" })
	ratios := map[string][]float64{}
	for w := 0; w < len(rows); w += len(pols) {
		for j, p := range pols {
			ratios[p.Name] = append(ratios[p.Name], rows[w+j].IPC/rows[w+lru].IPC)
		}
	}
	out := map[string]float64{}
	for p, rs := range ratios {
		out[p] = (stats.GeoMean(rs) - 1) * 100
	}
	return out
}

// TestFig10OnePassMatchesPerPenaltyRuns: Fig10 derives every penalty
// from one timing pass. One pipeline.New machine per (workload,
// policy) at each penalty must give the same geomean speedups, bit for
// bit.
func TestFig10OnePassMatchesPerPenaltyRuns(t *testing.T) {
	o := tiny(t)
	o.Workloads = 4
	got, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	pols := policies(sim.PaperPolicies...)
	if len(got.Points) != len(fig10Penalties) {
		t.Fatalf("%d points, want %d", len(got.Points), len(fig10Penalties))
	}
	for i, penalty := range fig10Penalties {
		var rows []sim.TimingResult
		for _, w := range o.suite() {
			for _, p := range pols {
				m, err := pipeline.New(pipeline.DefaultConfig(o.Instructions, penalty), p.New(), mustFactory("lru"))
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run(trace.NewLimit(w.Source(), o.Instructions))
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, sim.TimingResult{Workload: w.Name, Result: res})
			}
		}
		pt := got.Points[i]
		if pt.Penalty != penalty {
			t.Fatalf("point %d is penalty %d, want %d", i, pt.Penalty, penalty)
		}
		if want := geomeanPcts(rows, pols); !reflect.DeepEqual(pt.GeoMeanPct, want) {
			t.Errorf("penalty %d: geomeans %v, per-penalty runs %v", penalty, pt.GeoMeanPct, want)
		}
	}
}

// TestFig2OneSuiteMatchesPerLengthSuites: Fig2 runs every history
// length's variants in one timing pass beside one LRU. Separate
// three-policy suites per length, as Fig2 once ran, must give the same
// speedups bit for bit.
func TestFig2OneSuiteMatchesPerLengthSuites(t *testing.T) {
	o := tiny(t)
	o.Workloads = 4
	got, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(fig2Lengths) {
		t.Fatalf("%d points, want %d", len(got.Points), len(fig2Lengths))
	}
	for i, length := range fig2Lengths {
		pathOnly, combined := fig2Variants(length)
		pols := []sim.NamedFactory{
			{Name: "lru", New: mustFactory("lru")},
			{Name: "path-only", New: sim.CHiRPFactory(pathOnly)},
			{Name: "combined", New: sim.CHiRPFactory(combined)},
		}
		rows, err := sim.RunSuiteTimingCtx(o.ctx(), o.suite(), pols, o.tlbCfg(), o.WalkPenalty, o.suiteOpts())
		if err != nil {
			t.Fatal(err)
		}
		pct := geomeanPcts(rows, pols)
		want := Fig2Point{Length: length, PathOnlyPct: pct["path-only"], CombinedPct: pct["combined"]}
		if got.Points[i] != want {
			t.Errorf("length %d: one suite %+v, per-length suite %+v", length, got.Points[i], want)
		}
	}
}

// TestTimingFiguresPinned pins the printed timing figures at -n 8
// -instr 200000, as chirpexp prints them: Fig. 8's six geomeans and
// CHiRP's bootstrap CI, Fig. 10's rows at 20, 150 and 340 cycles, and
// Fig. 2's rows at history lengths 4 and 40. The strings were recorded
// from the fused multi-unit timing machine, so they hold any later
// timing path to its figures exactly.
func TestTimingFiguresPinned(t *testing.T) {
	o := Options{Workloads: 8, Instructions: 200_000, WalkPenalty: 150, StreamCache: l2stream.NewCache(0)}
	for _, fig := range []struct {
		name string
		run  func(Options) (Result, error)
		want []string
	}{
		{"fig8", func(o Options) (Result, error) { return Fig8(o) }, []string{
			"lru     +0.00%",
			"random  +0.62%",
			"srrip   -0.01%",
			"ship    +0.70%",
			"ghrp    +0.70%",
			"chirp   +0.69%",
			"CHiRP 95% bootstrap CI: [+0.00%, +1.68%] (§VI-G significance check)",
		}},
		{"fig10", func(o Options) (Result, error) { return Fig10(o) }, []string{
			"20       +0.00%  +0.11%  -0.00%  +0.12%  +0.12%  +0.12%",
			"150      +0.00%  +0.62%  -0.01%  +0.70%  +0.70%  +0.69%",
			"340      +0.00%  +1.04%  -0.03%  +1.18%  +1.18%  +1.16%",
		}},
		{"fig2", func(o Options) (Result, error) { return Fig2(o) }, []string{
			"4               +0.85%           +0.86%",
			"40              +0.43%           +0.41%",
		}},
	} {
		r, err := fig.run(o)
		if err != nil {
			t.Fatalf("%s: %v", fig.name, err)
		}
		var buf bytes.Buffer
		if err := r.Write(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(buf.String(), "\n")
		for _, want := range fig.want {
			if !slices.Contains(lines, want) {
				t.Errorf("%s: no line %q in:\n%s", fig.name, want, buf.String())
			}
		}
	}
}
