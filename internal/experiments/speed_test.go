package experiments

import (
	"testing"

	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
)

// geomeanPct is a speedup series' geometric mean in percent.
func geomeanPct(rs []float64) float64 { return (stats.GeoMean(rs) - 1) * 100 }

// TestFig10OnePassMatchesPerPenaltyRuns: Fig10 derives every penalty
// from one suite pass at the lowest penalty. A suite actually run at
// each penalty must produce the same integer cycles per (workload,
// policy) and the same geomean speedups, bit for bit.
func TestFig10OnePassMatchesPerPenaltyRuns(t *testing.T) {
	o := tiny(t)
	o.Workloads = 4
	got, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	pols, err := sim.Factories(sim.PaperPolicies)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := timingSuite(o, "", pols, fig10Penalties[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(fig10Penalties) {
		t.Fatalf("%d points, want %d", len(got.Points), len(fig10Penalties))
	}
	for i, penalty := range fig10Penalties {
		rows, names, err := timingSuite(o, "", pols, penalty)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range rows {
			if derived := base[j].Cycles + base[j].L2TLBMisses*(penalty-fig10Penalties[0]); derived != r.Cycles {
				t.Errorf("penalty %d %s/%s: derived cycles %d, run %d", penalty, r.Workload, r.Policy, derived, r.Cycles)
			}
		}
		pt := got.Points[i]
		if pt.Penalty != penalty {
			t.Fatalf("point %d is penalty %d, want %d", i, pt.Penalty, penalty)
		}
		for p, rs := range speedups(rows, names, pols, measuredIPC) {
			if want := geomeanPct(rs); pt.GeoMeanPct[p] != want {
				t.Errorf("penalty %d %s: geomean %v, per-penalty run %v", penalty, p, pt.GeoMeanPct[p], want)
			}
		}
	}
}

// TestFig2OneSuiteMatchesPerLengthSuites: Fig2 runs every history
// length's variants in one fused suite beside one LRU. Separate
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
		rows, names, err := timingSuite(o, "", pols, o.WalkPenalty)
		if err != nil {
			t.Fatal(err)
		}
		ratios := speedups(rows, names, pols, measuredIPC)
		want := Fig2Point{Length: length, PathOnlyPct: geomeanPct(ratios["path-only"]), CombinedPct: geomeanPct(ratios["combined"])}
		if got.Points[i] != want {
			t.Errorf("length %d: one suite %+v, per-length suite %+v", length, got.Points[i], want)
		}
	}
}
