package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

// tiny keeps experiment tests fast; shapes are asserted loosely since
// sample sizes are small. Its stream cache puts the MPKI experiments on
// the capture/replay path, as chirpexp runs them.
func tiny(t *testing.T) Options {
	return Options{Workloads: 8, Instructions: 250_000, WalkPenalty: 150, StreamCache: l2stream.NewCache(0)}
}

func TestFig7(t *testing.T) {
	r, err := Fig7(tiny(t))
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

// TestFig7NilCacheRunsDirect pins the cache rule at the experiment
// layer: without a stream cache Fig. 7 takes the direct reference path
// — no capture at all — and its result equals the replay run's.
func TestFig7NilCacheRunsDirect(t *testing.T) {
	o := tiny(t)
	o.Workloads = 4
	replay, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	o.StreamCache = nil
	misses := obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	before := misses.Value()
	direct, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if d := misses.Value() - before; d != 0 {
		t.Errorf("nil-cache Fig7 ran %d captures, want 0 (direct path)", d)
	}
	if !reflect.DeepEqual(direct, replay) {
		t.Errorf("direct Fig7 differs from replay:\n direct: %+v\n replay: %+v", direct.Averages, replay.Averages)
	}
}

// writePlans runs the named experiments' plans merged into one
// RunPlans call, as chirpexp does, and returns their printed results.
func writePlans(t *testing.T, o Options, ids ...string) string {
	t.Helper()
	plans := make([]Plan, len(ids))
	for i, id := range ids {
		plans[i] = Plans[id](o)
	}
	rs, err := RunPlans(o, plans)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range rs {
		if err := r.Write(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// TestMPKIFigureSetMemo runs chirpexp's MPKI figure set (fig6, fig7,
// fig9, baselines, prefetch) as chirpexp does: one merged plan of
// seven passes (one each for fig6, fig7, fig9 and baselines, three
// for prefetch), run as one engine job per workload. Of its 38 policy
// walks per workload only 25 are distinct (stream, configuration,
// policy) cells, so the replay-result memo serves 13 per workload; the
// output must equal a nil-cache run.
func TestMPKIFigureSetMemo(t *testing.T) {
	ids := []string{"fig6", "fig7", "fig9", "baselines", "prefetch"}
	const workloads = 2
	o := tiny(t)
	o.Workloads, o.Instructions = workloads, 200_000
	hits := obs.Default.Counter("chirp_replay_memo_hits_total", "")
	misses := obs.Default.Counter("chirp_replay_memo_misses_total", "")
	jobs := obs.Default.CounterVec("chirp_engine_jobs_total", "", "status").With("ok")
	hits0, misses0, jobs0 := hits.Value(), misses.Value(), jobs.Value()
	replay := writePlans(t, o, ids...)
	if d := jobs.Value() - jobs0; d != workloads {
		t.Errorf("ok engine jobs = %d, want %d (one per workload)", d, workloads)
	}
	if d := hits.Value() - hits0; d != 13*workloads {
		t.Errorf("memo hits = %d, want %d (13 per workload)", d, 13*workloads)
	}
	if d := misses.Value() - misses0; d != 25*workloads {
		t.Errorf("memo misses = %d, want %d (25 distinct cells per workload)", d, 25*workloads)
	}
	o.StreamCache = nil
	if direct := writePlans(t, o, ids...); direct != replay {
		t.Errorf("memoized replay output differs from the nil-cache run:\n replay:\n%s\n direct:\n%s", replay, direct)
	}
}

// TestPrefetchPlanPersistsNoSchedule: the prefetch plan over a capture
// directory writes no prefetch-schedule sidecar (no .l2d file holds a
// pf1: key), since each replay builds its schedule from the access
// view. A warm rerun over the same directory decodes nothing, and both
// runs print what the nil-cache direct path prints.
func TestPrefetchPlanPersistsNoSchedule(t *testing.T) {
	dir := t.TempDir()
	o := tiny(t)
	o.Workloads, o.Instructions = 2, 200_000
	persistent := func() *l2stream.Cache {
		c, err := l2stream.NewPersistent(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	o.StreamCache = persistent()
	cold := writePlans(t, o, "prefetch")
	sidecars, err := filepath.Glob(filepath.Join(dir, "*.l2d"))
	if err != nil || len(sidecars) == 0 {
		t.Fatalf("cold run wrote no sidecars (%v)", err)
	}
	for _, p := range sidecars {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("pf1:")) {
			t.Errorf("%s holds a prefetch schedule", filepath.Base(p))
		}
	}
	passes := obs.Default.Counter("chirp_l2stream_decode_passes_total", "")
	o.StreamCache = persistent()
	passes0 := passes.Value()
	warm := writePlans(t, o, "prefetch")
	if d := passes.Value() - passes0; d != 0 {
		t.Errorf("warm rerun made %d decode passes, want 0", d)
	}
	o.StreamCache = nil
	direct := writePlans(t, o, "prefetch")
	if cold != direct || warm != direct {
		t.Errorf("capture-directory output differs from the nil-cache run:\n cold:\n%s\n warm:\n%s\n direct:\n%s", cold, warm, direct)
	}
}

// TestFig8CellsAreFig7MemoHits: Figure 8's timing pass measures
// Figure 7's cells, so merged with Figure 7 each workload captures once
// and all six of its cells are memo hits. The output must equal a
// nil-cache run's.
func TestFig8CellsAreFig7MemoHits(t *testing.T) {
	const workloads = 2
	o := tiny(t)
	o.Workloads, o.Instructions = workloads, 200_000
	hits := obs.Default.Counter("chirp_replay_memo_hits_total", "")
	captures := obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	hits0, captures0 := hits.Value(), captures.Value()
	replay := writePlans(t, o, "fig7", "fig8")
	if d := captures.Value() - captures0; d != workloads {
		t.Errorf("captures = %d, want %d (one per workload)", d, workloads)
	}
	if d := hits.Value() - hits0; d != 6*workloads {
		t.Errorf("memo hits = %d, want %d (Figure 8's six cells per workload)", d, 6*workloads)
	}
	o.StreamCache = nil
	if direct := writePlans(t, o, "fig7", "fig8"); direct != replay {
		t.Errorf("replayed output differs from the nil-cache run:\n replay:\n%s\n direct:\n%s", replay, direct)
	}
}

// TestMergedPlanMatchesSoloExperiments: every planned experiment,
// the timing figures included, merged into one plan, prints what it
// prints run on its own.
func TestMergedPlanMatchesSoloExperiments(t *testing.T) {
	ids := []string{"fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "opt", "baselines", "prefetch", "categories"}
	if len(ids) != len(Plans) {
		t.Fatalf("%d plans declared, the test covers %d", len(Plans), len(ids))
	}
	o := tiny(t)
	o.Workloads, o.Instructions = 3, 200_000
	merged := writePlans(t, o, ids...)
	var solo strings.Builder
	for _, id := range ids {
		solo.WriteString(writePlans(t, o, id))
	}
	if merged != solo.String() {
		t.Errorf("merged plan output differs from the experiments run alone:\n merged:\n%s\n solo:\n%s", merged, solo.String())
	}
}

// TestMPKISweepsOneSuiteMatchPerPolicySuites: Fig6, Fig9 and Prefetch
// run each configuration's policies in one fused suite. Separate
// one-policy suites, as they once ran, over a stream cache of their
// own must give the same means and reductions bit for bit.
func TestMPKISweepsOneSuiteMatchPerPolicySuites(t *testing.T) {
	o := tiny(t)
	o.Workloads = 4
	solo := tiny(t)
	solo.Workloads = 4
	mean := func(p sim.NamedFactory, cfg sim.TLBOnlyConfig) float64 {
		rows, err := sim.RunSuiteTLBOnlyCtx(solo.ctx(), solo.suite(), []sim.NamedFactory{p}, cfg, solo.suiteOpts())
		if err != nil {
			t.Fatal(err)
		}
		return meanMPKI(rows)
	}
	lru := policies("lru")[0]
	base := mean(lru, o.tlbCfg())

	fig6, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	variants := fig6Variants()
	if len(fig6.Variants) != len(variants) {
		t.Fatalf("fig6: %d variants, want %d", len(fig6.Variants), len(variants))
	}
	for i, v := range variants {
		m := mean(sim.NamedFactory{Name: v.name, New: v.factory}, o.tlbCfg())
		if got := fig6.Variants[i]; got.MeanMPKI != m || got.ReductionPct != stats.Reduction(base, m) {
			t.Errorf("fig6 %s: one suite %v/%v, per-policy suite %v/%v", v.name, got.MeanMPKI, got.ReductionPct, m, stats.Reduction(base, m))
		}
	}

	fig9, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig9.Points {
		c := core.DefaultConfig()
		c.TableEntries = p.Bytes * 8 / 2
		m := mean(sim.NamedFactory{Name: "chirp", New: sim.CHiRPFactory(c)}, o.tlbCfg())
		if p.MeanMPKI != m || p.ReductionPct != stats.Reduction(base, m) {
			t.Errorf("fig9 %dB: one suite %v/%v, per-policy suite %v/%v", p.Bytes, p.MeanMPKI, p.ReductionPct, m, stats.Reduction(base, m))
		}
	}

	pf, err := Prefetch(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range pf.Rows {
		cfg := o.tlbCfg()
		cfg.PrefetchDistance = row.Distance
		if m := mean(policies(row.Policy)[0], cfg); row.MeanMPKI != m {
			t.Errorf("prefetch %s d=%d: one suite %v, per-policy suite %v", row.Policy, row.Distance, row.MeanMPKI, m)
		}
	}
}

func TestFig1(t *testing.T) {
	r, err := Fig1(tiny(t))
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
	r, err := Fig6(tiny(t))
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
	r, err := Fig9(tiny(t))
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
	r, err := Fig11(tiny(t))
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
	r, err := Fig8(tiny(t))
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
	o := tiny(t)
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
	r, err := Table1(tiny(t))
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
	if err := Table2(tiny(t), &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"L2 Unified TLB", "1024 entries", "hashed perceptron", "240 cycles"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

func TestOptBound(t *testing.T) {
	o := tiny(t)
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
	o := tiny(t)
	o.Workloads = 4
	want, err := OptBound(o)
	if err != nil {
		t.Fatal(err)
	}
	o.StreamCache = l2stream.NewCache(1024)
	overBudget := obs.Default.Counter("chirp_l2stream_cache_spills_total", "")
	before := overBudget.Value()
	got, err := OptBound(o)
	if err != nil {
		t.Fatal(err)
	}
	// One abandoned capture per workload: each job tries its capture
	// once, and its suite pass and OPT row both take the direct path.
	if d := overBudget.Value() - before; d != uint64(o.Workloads) {
		t.Errorf("%d captures abandoned over budget, want %d", d, o.Workloads)
	}
	if got.OptMeanMPKI != want.OptMeanMPKI || got.Averages[1] != want.Averages[1] {
		t.Errorf("over budget: OPT %v, chirp %+v; default budget: OPT %v, chirp %+v",
			got.OptMeanMPKI, got.Averages[1], want.OptMeanMPKI, want.Averages[1])
	}
}

func TestWalker(t *testing.T) {
	o := tiny(t)
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

// TestCategoriesKeepsSpecCategories: a spec-compiled population whose
// categories are not built-in templates (the multi-tenant exemplar's
// "mix") still gets one row per category, covering every workload.
func TestCategoriesKeepsSpecCategories(t *testing.T) {
	s, err := spec.Load("../../examples/specs/multitenant.json")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := spec.Compile(s, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Suite: compiled.Workloads(), Workloads: 2, Instructions: 200_000}
	res, err := Categories(o)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, w := range compiled.Workloads()[:2] {
		want[w.Category]++
	}
	got := map[string]int{}
	for _, row := range res.Categories {
		got[row.Category] = row.Count
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("category rows %v, want %v", got, want)
	}
}
