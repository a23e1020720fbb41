package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/mixed"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

func TestConsolidated(t *testing.T) {
	o := tiny(t)
	o.Instructions = 400_000
	r, err := Consolidated(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Degrees) != 3 {
		t.Fatalf("degrees = %d, want 3 (2/4/8-way)", len(r.Degrees))
	}
	for _, d := range r.Degrees {
		if d.LRUMPKI <= 0 || d.CHiRPMPKI <= 0 {
			t.Errorf("%d-way: empty MPKIs %+v", d.Workloads, d)
		}
		if d.FlushMPKI < d.LRUMPKI {
			t.Errorf("%d-way: flush MPKI %.3f below ASID MPKI %.3f", d.Workloads, d.FlushMPKI, d.LRUMPKI)
		}
	}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2-way") {
		t.Error("report missing 2-way row")
	}
}

func TestPrefetch(t *testing.T) {
	r, err := Prefetch(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 policies × 3 distances)", len(r.Rows))
	}
	// Distance-0 rows must match the plain policies' behaviour: LRU
	// first, positive MPKIs everywhere.
	if r.Rows[0].Policy != "lru" || r.Rows[0].Distance != 0 {
		t.Errorf("first row = %+v", r.Rows[0])
	}
	for _, row := range r.Rows {
		if row.MeanMPKI < 0 {
			t.Errorf("negative MPKI: %+v", row)
		}
	}
	// Prefetching must help LRU on this suite (sequential-heavy).
	if r.Rows[2].MeanMPKI >= r.Rows[0].MeanMPKI {
		t.Errorf("prefetch d=4 (%.3f) did not beat no-prefetch (%.3f)", r.Rows[2].MeanMPKI, r.Rows[0].MeanMPKI)
	}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestMixedExperiment(t *testing.T) {
	o := tiny(t)
	o.Workloads = 3
	r, err := Mixed(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no mixed-page workloads found")
	}
	for _, row := range r.Rows {
		if row.LRU.Stats.Accesses == 0 || row.CHiRP.Stats.Accesses == 0 {
			t.Errorf("empty mixed run: %+v", row)
		}
	}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2M share") {
		t.Error("report missing 2M share column")
	}
}

// TestMixedUsesSuite: the mixed-page-size study draws its workloads
// from o.Suite, the population a -workload-spec compiles, as every
// other experiment does: the first 4n of it, not of the built-in
// suite.
func TestMixedUsesSuite(t *testing.T) {
	o := tiny(t)
	o.Workloads, o.Instructions = 2, 150_000
	builtin, err := Mixed(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Suite = workloads.SuiteN(200)[100:]
	got, err := Mixed(o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mixed.CompareOnSuite(o.Suite[:8], 2, o.Instructions, func() []mixed.Policy {
		ca, err := mixed.NewCostAware(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return []mixed.Policy{mixed.NewLRU(), ca}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want) || len(want) == 0 {
		t.Fatalf("rows = %d, want %d from the suite's first 8 workloads", len(got.Rows), len(want))
	}
	for i, row := range got.Rows {
		if !reflect.DeepEqual([]mixed.Result{row.LRU, row.CHiRP}, want[i]) {
			t.Errorf("row %d = %+v, want %+v", i, row, want[i])
		}
	}
	if reflect.DeepEqual(got.Rows, builtin.Rows) {
		t.Error("a different suite gave the built-in suite's rows")
	}
}

// TestMixedRejectsWorkloadWithoutProgram: a trace-file workload has no
// program model to read 2 MB regions from, so the study fails with an
// error naming it instead of panicking or quietly skipping it.
func TestMixedRejectsWorkloadWithoutProgram(t *testing.T) {
	path := t.TempDir() + "/db-003.chtr"
	if _, _, err := trace.WriteFile(path, trace.NewLimit(workloads.ByName("db-003").Source(), 10_000)); err != nil {
		t.Fatal(err)
	}
	w, err := workloads.TraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	o := tiny(t)
	o.Workloads, o.Instructions = 1, 10_000
	o.Suite = []*workloads.Workload{w}
	if _, err := Mixed(o); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("error = %v, want one naming %s", err, path)
	}
}

func TestCategories(t *testing.T) {
	o := tiny(t)
	o.Workloads = 16 // two per category
	r, err := Categories(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Categories) != 8 {
		t.Fatalf("categories = %d, want 8", len(r.Categories))
	}
	for _, row := range r.Categories {
		if row.Count != 2 {
			t.Errorf("%s count = %d, want 2", row.Category, row.Count)
		}
		if row.ReductionPct["lru"] != 0 {
			t.Errorf("%s LRU self-reduction = %v", row.Category, row.ReductionPct["lru"])
		}
	}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestFig2WriteRenders(t *testing.T) {
	r := &Fig2Result{Points: []Fig2Point{
		{Length: 4, PathOnlyPct: 1.0, CombinedPct: 1.2},
		{Length: 16, PathOnlyPct: 2.0, CombinedPct: 2.5},
	}}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "history length") {
		t.Error("fig2 report malformed")
	}
}

func TestFig10WriteRenders(t *testing.T) {
	r := &Fig10Result{
		Order: []string{"lru", "srrip", "ghrp", "chirp"},
		Points: []Fig10Point{
			{Penalty: 20, GeoMeanPct: map[string]float64{"lru": 0, "srrip": 0.2, "ghrp": 0.5, "chirp": 0.7}},
			{Penalty: 340, GeoMeanPct: map[string]float64{"lru": 0, "srrip": 1.8, "ghrp": 5.3, "chirp": 7.0}},
		},
	}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "340") {
		t.Error("fig10 report missing penalty row")
	}
}

func TestFig8WriteIncludesCI(t *testing.T) {
	r := &Fig8Result{
		Penalty: 150,
		Curve: &stats.SCurve{
			Labels: []string{"w0"},
			Series: map[string][]float64{"lru": {1}},
			Order:  "lru",
		},
		Order:      []string{"lru"},
		GeoMeanPct: map[string]float64{"lru": 0},
		CHiRPCILo:  3.8, CHiRPCIHi: 4.8,
	}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "bootstrap CI") {
		t.Error("fig8 report missing CI line")
	}
}
