package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
)

// tiny keeps experiment tests fast; shapes are asserted loosely since
// sample sizes are small.
func tiny() Options {
	return Options{Workloads: 8, Instructions: 250_000, WalkPenalty: 150}
}

func TestFig7(t *testing.T) {
	r, err := Fig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Averages) != 6 {
		t.Fatalf("averages = %d, want 6", len(r.Averages))
	}
	if r.Averages[0].Policy != "lru" || r.Averages[0].ReductionPct != 0 {
		t.Errorf("baseline row: %+v", r.Averages[0])
	}
	var chirpRed float64
	for _, a := range r.Averages {
		if a.Policy == "chirp" {
			chirpRed = a.ReductionPct
		}
	}
	if chirpRed <= 0 {
		t.Errorf("CHiRP reduction = %v, want positive", chirpRed)
	}
	if len(r.Curve.Labels) != 8 {
		t.Errorf("curve labels = %d, want 8", len(r.Curve.Labels))
	}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "chirp") {
		t.Error("report missing chirp row")
	}
}

func TestFig1(t *testing.T) {
	r, err := Fig1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows["chirp"]) != 8 {
		t.Fatalf("chirp rows = %d, want 8", len(r.Rows["chirp"]))
	}
	for p, effs := range r.Rows {
		for i, e := range effs {
			if e < 0 || e > 1 {
				t.Errorf("%s efficiency[%d] = %v out of [0,1]", p, i, e)
			}
		}
	}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestFig6LadderShape(t *testing.T) {
	r, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 8 {
		t.Fatalf("variants = %d, want 8", len(r.Variants))
	}
	if r.Variants[0].Name != "ship" || r.Variants[len(r.Variants)-1].Name != "chirp" {
		t.Errorf("ladder endpoints: %s .. %s", r.Variants[0].Name, r.Variants[len(r.Variants)-1].Name)
	}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestFig9MonotoneBudget(t *testing.T) {
	r, err := Fig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 7 {
		t.Fatalf("points = %d, want 7", len(r.Points))
	}
	if r.Points[0].Bytes != 128 || r.Points[len(r.Points)-1].Bytes != 8192 {
		t.Errorf("budget endpoints: %d..%d", r.Points[0].Bytes, r.Points[len(r.Points)-1].Bytes)
	}
	for _, p := range r.Points {
		if p.Entries != p.Bytes*4 {
			t.Errorf("%dB: entries = %d, want %d (2-bit counters)", p.Bytes, p.Entries, p.Bytes*4)
		}
	}
}

func TestFig11Ordering(t *testing.T) {
	r, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, d := range r.Densities {
		rates[d.Name] = d.Mean
	}
	// CHiRP must access its table far less often than SHiP and GHRP —
	// the paper's Figure 11 claim.
	if rates["chirp"] >= rates["ship"] || rates["chirp"] >= rates["ghrp"] {
		t.Errorf("CHiRP table rate %.3f not below SHiP %.3f / GHRP %.3f",
			rates["chirp"], rates["ship"], rates["ghrp"])
	}
}

func TestFig8SpeedupRuns(t *testing.T) {
	r, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.GeoMeanPct["lru"] != 0 {
		t.Errorf("LRU self-speedup = %v, want 0", r.GeoMeanPct["lru"])
	}
	if len(r.Curve.Labels) != 8 {
		t.Errorf("labels = %d", len(r.Curve.Labels))
	}
}

func TestFig3SalienceNormalised(t *testing.T) {
	o := tiny()
	o.Instructions = 500_000 // needs enough evictions for samples
	r, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Skip("no workloads produced enough lifetime samples at this scale")
	}
	for _, row := range r.Rows {
		for i, s := range row.Salience {
			if s < 0 || s > 1 {
				t.Errorf("%s salience[%d] = %v out of [0,1]", row.Workload, i, s)
			}
		}
	}
	var sb bytes.Buffer
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestTable1(t *testing.T) {
	r, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Configs) != 3 {
		t.Fatalf("configs = %d, want 3", len(r.Configs))
	}
	// The paper's main budget: 3.15 KB total for a 1 KB counter table.
	if got := r.Configs[1].TotalBytes; got != 3224 {
		t.Errorf("main config total = %v bytes, want 3224", got)
	}
	if r.Configs[0].TotalBytes >= r.Configs[2].TotalBytes {
		t.Error("budgets not increasing")
	}
}

func TestTable2(t *testing.T) {
	var sb bytes.Buffer
	if err := Table2(tiny(), &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"L2 Unified TLB", "1024 entries", "hashed perceptron", "240 cycles"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

func TestOptBound(t *testing.T) {
	o := tiny()
	o.Workloads = 4
	r, err := OptBound(o)
	if err != nil {
		t.Fatal(err)
	}
	// The offline optimum must dominate both online policies.
	if r.OptMeanMPKI > r.Averages[0].MeanMPKI || r.OptMeanMPKI > r.Averages[1].MeanMPKI {
		t.Errorf("OPT mean %.3f above online policies %+v", r.OptMeanMPKI, r.Averages)
	}
}

// TestOptBoundOverBudget: under a stream-cache budget no capture fits,
// every job takes the direct fallback, and the bound must not move.
func TestOptBoundOverBudget(t *testing.T) {
	o := tiny()
	o.Workloads = 4
	want, err := OptBound(o)
	if err != nil {
		t.Fatal(err)
	}
	o.StreamCache = l2stream.NewCache(1024)
	defer o.StreamCache.Close()
	overBudget := obs.Default.Counter("chirp_l2stream_cache_spills_total", "")
	before := overBudget.Value()
	got, err := OptBound(o)
	if err != nil {
		t.Fatal(err)
	}
	// One abandoned capture per workload: the OPT jobs reuse the
	// remembered outcome of the suite pass instead of recapturing.
	if d := overBudget.Value() - before; d != uint64(o.Workloads) {
		t.Errorf("%d captures abandoned over budget, want %d", d, o.Workloads)
	}
	if got.OptMeanMPKI != want.OptMeanMPKI || got.Averages[1] != want.Averages[1] {
		t.Errorf("over budget: OPT %v, chirp %+v; default budget: OPT %v, chirp %+v",
			got.OptMeanMPKI, got.Averages[1], want.OptMeanMPKI, want.Averages[1])
	}
}

func TestWalker(t *testing.T) {
	o := tiny()
	o.Workloads = 2
	r, err := Walker(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.FixedIPC <= 0 || r.RadixIPC <= 0 {
		t.Fatalf("IPCs: %+v", r)
	}
	if r.RadixAvgWalk <= 0 {
		t.Errorf("radix avg walk = %v, want positive", r.RadixAvgWalk)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Workloads != 870 || o.WalkPenalty != 150 {
		t.Errorf("DefaultOptions = %+v", o)
	}
	if got := len(o.suite()); got != 870 {
		t.Errorf("suite size = %d", got)
	}
	o.Workloads = -1
	if got := len(o.suite()); got != 870 {
		t.Errorf("negative workload count must clamp to full suite, got %d", got)
	}
}
