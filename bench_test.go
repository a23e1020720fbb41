package chirp

// The benchmarks below regenerate every table and figure of the
// paper's evaluation at a reduced scale (suite prefix + shorter
// traces) and publish the headline numbers as custom benchmark
// metrics, so `go test -bench=.` doubles as the reproduction harness:
//
//	BenchmarkFig7MPKI            …  chirp_red_% / srrip_red_% / …
//	BenchmarkFig8Speedup         …  chirp_speedup_%
//	BenchmarkFig9TableSize       …  red_1KB_% …
//
// cmd/chirpexp runs the same experiments at full scale.

import (
	"context"
	"io"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/experiments"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// benchOptions is the reduced scale every experiment benchmark uses.
func benchOptions() experiments.Options {
	return experiments.Options{
		Workloads:    24,
		Instructions: 400_000,
		WalkPenalty:  150,
	}
}

// tinyOptions is for the expensive multi-sweep experiments.
func tinyOptions() experiments.Options {
	return experiments.Options{
		Workloads:    8,
		Instructions: 250_000,
		WalkPenalty:  150,
	}
}

// cached runs one MPKI experiment through a fresh stream cache, as
// chirpexp runs it: every iteration pays its own captures, and a nil
// cache would measure the direct reference path instead.
func cached[R any](o experiments.Options, exp func(experiments.Options) (R, error)) (R, error) {
	o.StreamCache = l2stream.NewCache(0)
	defer o.StreamCache.Close()
	return exp(o)
}

func BenchmarkFig1TLBEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := cached(benchOptions(), experiments.Fig1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgGainPct["chirp"], "chirp_eff_gain_%")
		b.ReportMetric(r.AvgGainPct["random"], "random_eff_gain_%")
	}
}

func BenchmarkFig2HistoryLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(tinyOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.PathOnlyPct, "pathonly_len40_%")
		b.ReportMetric(last.CombinedPct, "combined_len40_%")
	}
}

func BenchmarkFig3Adaline(b *testing.B) {
	o := benchOptions()
	o.Workloads = 8
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.MeanSalience) > 1 {
			b.ReportMetric(r.MeanSalience[0], "bit2_salience")
			b.ReportMetric(r.MeanSalience[1], "bit3_salience")
		}
	}
}

func BenchmarkFig6Ablation(b *testing.B) {
	o := benchOptions()
	o.Workloads = 16
	for i := 0; i < b.N; i++ {
		r, err := cached(o, experiments.Fig6)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range r.Variants {
			switch v.Name {
			case "ship", "chirp-pc", "chirp":
				b.ReportMetric(v.ReductionPct, v.Name+"_red_%")
			}
		}
	}
}

func BenchmarkFig7MPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := cached(benchOptions(), experiments.Fig7)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range r.Averages {
			b.ReportMetric(a.ReductionPct, a.Policy+"_red_%")
		}
		b.ReportMetric(r.BestReductionPct, "best_red_%")
	}
}

func BenchmarkFig8Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeoMeanPct["chirp"], "chirp_speedup_%")
		b.ReportMetric(r.GeoMeanPct["srrip"], "srrip_speedup_%")
	}
}

func BenchmarkFig9TableSize(b *testing.B) {
	o := benchOptions()
	o.Workloads = 16
	for i := 0; i < b.N; i++ {
		r, err := cached(o, experiments.Fig9)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.Bytes == 128 || p.Bytes == 1024 || p.Bytes == 8192 {
				b.ReportMetric(p.ReductionPct, "red_"+itoa(p.Bytes)+"B_%")
			}
		}
	}
}

func BenchmarkFig10PenaltySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(tinyOptions())
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		b.ReportMetric(first.GeoMeanPct["chirp"], "chirp_at20_%")
		b.ReportMetric(last.GeoMeanPct["chirp"], "chirp_at340_%")
	}
}

func BenchmarkFig11TableAccessRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := cached(benchOptions(), experiments.Fig11)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range r.Densities {
			b.ReportMetric(d.Mean*100, d.Name+"_rate_%")
		}
	}
}

func BenchmarkTable1Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Configs[1].TotalBytes/1024, "main_cfg_KB")
	}
}

func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(benchOptions(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptUpperBound(b *testing.B) {
	o := tinyOptions()
	for i := 0; i < b.N; i++ {
		r, err := cached(o, experiments.OptBound)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OptReductionPct, "opt_red_%")
	}
}

func BenchmarkRadixWalker(b *testing.B) {
	o := tinyOptions()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Walker(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RadixAvgWalk, "avg_walk_cycles")
	}
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkCHiRPSignature(b *testing.B) {
	p := core.MustNew(core.DefaultConfig())
	p.Attach(128, 8)
	for i := 0; i < 64; i++ {
		p.OnBranch(uint64(i)<<4, i%2 == 0, i%3 == 0, true, 0)
	}
	b.ResetTimer()
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink = p.Signature(uint64(i) << 2)
	}
	_ = sink
}

// BenchmarkHistoriesPush is the O(1) per-event kernel alone: one path
// push plus one branch push with their incremental fold updates —
// the work CHiRP's OnAccess/OnBranch add beyond the signature hash.
func BenchmarkHistoriesPush(b *testing.B) {
	h := core.NewHistories(core.DefaultHistoryConfig())
	for i := 0; i < b.N; i++ {
		h.PushAccess(uint64(i) << 2)
		h.PushCond(uint64(i) << 4)
	}
	_ = h.Path()
}

func BenchmarkTLBLookupHit(b *testing.B) {
	tl, err := tlb.New(tlb.Config{Name: "b", Entries: 1024, Ways: 8, PageShift: 12}, policy.NewLRU())
	if err != nil {
		b.Fatal(err)
	}
	a := tlb.Access{PC: 0x1000, VPN: 42}
	tl.Lookup(&a)
	tl.Insert(&a, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(&a)
	}
}

func BenchmarkTLBLookupCHiRP(b *testing.B) {
	tl, err := tlb.New(tlb.Config{Name: "b", Entries: 1024, Ways: 8, PageShift: 12}, core.MustNew(core.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	a := tlb.Access{PC: 0x1000, VPN: 42}
	tl.Lookup(&a)
	tl.Insert(&a, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.VPN = uint64(i) & 1023 // mixed sets exercise the full path
		if _, hit := tl.Lookup(&a); !hit {
			tl.Insert(&a, a.VPN)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	w := workloads.ByName("db-003")
	src := w.Source()
	var rec trace.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Next(&rec)
	}
}

func BenchmarkTLBOnlySimThroughput(b *testing.B) {
	w := workloads.ByName("db-003")
	cfg := sim.DefaultTLBOnlyConfig(0)
	cfg.WarmupFraction = 0
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		res, err := sim.RunTLBOnly(trace.NewLimit(w.Source(), 500_000), policy.NewLRU(), sim.DefaultTLBOnlyConfig(500_000))
		if err != nil {
			b.Fatal(err)
		}
		total += res.Instructions
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkFrontEnd is the timing layer alone: one policy-free front
// end (the machine every timing pass runs once per workload) built and
// run over db-003's first 400k instructions, collected beforehand so
// trace generation stays out of the number.
func BenchmarkFrontEnd(b *testing.B) {
	const instr = 400_000
	recs := trace.Collect(trace.NewLimit(workloads.ByName("db-003").Source(), instr))
	cfg := pipeline.DefaultConfig(instr, 150)
	lru := func() tlb.Policy { return policy.NewLRU() }
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		m, err := pipeline.New(cfg, nil, lru)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(trace.NewSliceSource(recs)); err != nil {
			b.Fatal(err)
		}
		total += instr
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/instr")
}

// --- capture/replay benchmarks (internal/l2stream) ---

// streamBenchPolicies spans the cheap and expensive ends of the
// registry: replay wins most where the policy itself is light.
var streamBenchPolicies = []string{"lru", "srrip", "ship", "ghrp", "chirp"}

func streamBenchSource(cfg sim.TLBOnlyConfig) trace.Source {
	return trace.NewLimit(workloads.ByName("db-003").Source(), cfg.Instructions)
}

// BenchmarkRunTLBOnly is the direct path: generate + L1-filter + L2
// simulate, per policy, every iteration.
func BenchmarkRunTLBOnly(b *testing.B) {
	cfg := sim.DefaultTLBOnlyConfig(400_000)
	for _, name := range streamBenchPolicies {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := sim.NewPolicy(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.RunTLBOnly(streamBenchSource(cfg), p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayTLBOnly is a one-policy replay (ReplayMulti) over a
// pre-captured stream whose derived views are memoized after the first
// iteration — what every policy after the first pays in a sweep.
func BenchmarkReplayTLBOnly(b *testing.B) {
	cfg := sim.DefaultTLBOnlyConfig(400_000)
	stream, err := l2stream.Capture(streamBenchSource(cfg), sim.CaptureConfig(cfg), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer stream.Close()
	for _, name := range streamBenchPolicies {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := sim.NewPolicy(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.ReplayMulti(stream, []tlb.Policy{p}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayMulti compares one N-policy ReplayMulti call against
// the same policies replayed by N one-policy calls over one captured
// stream. Both walk the same memoized views; the ratio is what the
// policy-parallel fan-out inside one call buys a multi-policy sweep.
func BenchmarkReplayMulti(b *testing.B) {
	cfg := sim.DefaultTLBOnlyConfig(400_000)
	stream, err := l2stream.Capture(streamBenchSource(cfg), sim.CaptureConfig(cfg), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer stream.Close()
	build := func() []tlb.Policy {
		pols := make([]tlb.Policy, len(streamBenchPolicies))
		for i, name := range streamBenchPolicies {
			p, err := sim.NewPolicy(name)
			if err != nil {
				b.Fatal(err)
			}
			pols[i] = p
		}
		return pols
	}
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range build() {
				if _, err := sim.ReplayMulti(stream, []tlb.Policy{p}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.ReplayMulti(stream, build(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamCapture measures the encode side: one full
// generate + L1-filter + delta-encode pass.
func BenchmarkStreamCapture(b *testing.B) {
	cfg := sim.DefaultTLBOnlyConfig(400_000)
	var records, events, bytes float64
	for i := 0; i < b.N; i++ {
		s, err := l2stream.Capture(streamBenchSource(cfg), sim.CaptureConfig(cfg), 0)
		if err != nil {
			b.Fatal(err)
		}
		records = float64(s.Records())
		events = float64(s.Events())
		bytes = float64(s.FootprintBytes())
		s.Close()
	}
	b.ReportMetric(records*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
	b.ReportMetric(bytes/events, "bytes/event")
}

// BenchmarkStreamDecode measures the decode side alone: one pass over
// the captured event sequence, no TLB behind it, through both the
// record-at-a-time and the block decoder replay actually uses.
func BenchmarkStreamDecode(b *testing.B) {
	cfg := sim.DefaultTLBOnlyConfig(400_000)
	s, err := l2stream.Capture(streamBenchSource(cfg), sim.CaptureConfig(cfg), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.Run("event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := s.Decode()
			var ev l2stream.Event
			n := 0
			for d.Next(&ev) {
				n++
			}
			if err := d.Err(); err != nil {
				b.Fatal(err)
			}
			if uint64(n) != s.Events() {
				b.Fatalf("decoded %d events, captured %d", n, s.Events())
			}
		}
		b.ReportMetric(float64(s.Events())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
	b.Run("block", func(b *testing.B) {
		var evs [256]l2stream.Event
		for i := 0; i < b.N; i++ {
			d := s.Decode()
			n := 0
			for {
				k := d.NextBlock(evs[:])
				if k == 0 {
					break
				}
				n += k
			}
			if err := d.Err(); err != nil {
				b.Fatal(err)
			}
			if uint64(n) != s.Events() {
				b.Fatalf("decoded %d events, captured %d", n, s.Events())
			}
		}
		b.ReportMetric(float64(s.Events())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
}

// BenchmarkSweepPolicies is the headline comparison: multi-policy
// suite sweeps with capture/replay on versus off. The ratio of each
// pair of sub-benchmark times is the wall-clock speedup chirpsweep
// sees for that policy set. Each capture-replay iteration builds its
// own stream cache, so it pays every capture and decode — nothing is
// amortized across iterations.
func BenchmarkSweepPolicies(b *testing.B) {
	sets := []struct {
		name     string
		policies []string
	}{
		// The paper's four non-predictive baselines (Fig. 7 minus the
		// predictors), the headline 4-policy comparison…
		{"baseline4", []string{"lru", "random", "srrip", "ship"}},
		// …the 4-policy set with both branch-history predictors…
		{"predictive4", []string{"lru", "srrip", "ghrp", "chirp"}},
		// …and the full Figure 7 set.
		{"fig7", []string{"lru", "random", "srrip", "ship", "ghrp", "chirp"}},
	}
	ws := workloads.SuiteN(8)
	cfg := sim.DefaultTLBOnlyConfig(400_000)
	for _, set := range sets {
		pols, err := sim.Factories(set.policies)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, replay bool) {
			for i := 0; i < b.N; i++ {
				var cache *l2stream.Cache
				if replay {
					cache = l2stream.NewCache(0)
				}
				rs, err := sim.RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg,
					sim.SuiteOptions{Workers: 1, StreamCache: cache})
				if err != nil {
					b.Fatal(err)
				}
				if len(rs) != len(ws)*len(pols) {
					b.Fatalf("got %d results", len(rs))
				}
				if cache != nil {
					cache.Close()
				}
			}
		}
		b.Run(set.name+"/direct", func(b *testing.B) { run(b, false) })
		b.Run(set.name+"/capture-replay", func(b *testing.B) { run(b, true) })
	}
}

// BenchmarkSweepPersistent is the warm-store sweep: the Figure 7
// policy set over a capture directory populated before the timer, with
// a fresh cache per iteration (standing in for a fresh process). Every
// iteration therefore loads each workload's stream from disk and runs
// one fused replay per workload — zero captures, which is what a
// second `chirpexp -capturedir` run pays.
func BenchmarkSweepPersistent(b *testing.B) {
	ws := workloads.SuiteN(8)
	cfg := sim.DefaultTLBOnlyConfig(400_000)
	pols, err := sim.Factories([]string{"lru", "random", "srrip", "ship", "ghrp", "chirp"})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	warm, err := l2stream.NewPersistent(0, dir)
	if err != nil {
		b.Fatal(err)
	}
	// Warm with the full policy set so the derived sidecars (replay
	// views, signature sequences) are on disk too: a second
	// `chirpexp -capturedir` run loads them instead of rebuilding.
	if _, err := sim.RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg,
		sim.SuiteOptions{Workers: 1, StreamCache: warm}); err != nil {
		b.Fatal(err)
	}
	warm.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache, err := l2stream.NewPersistent(0, dir)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := sim.RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg,
			sim.SuiteOptions{Workers: 1, StreamCache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != len(ws)*len(pols) {
			b.Fatalf("got %d results", len(rs))
		}
		cache.Close()
	}
}

// BenchmarkSweepWorkers measures multi-worker sweep scaling over the
// capture+replay path: the full Figure 7 policy set across a suite
// prefix, at increasing engine worker counts. Each workload's job
// captures its own stream and builds its views once, so workers share
// nothing and scaling is limited only by the simulations themselves.
func BenchmarkSweepWorkers(b *testing.B) {
	ws := workloads.SuiteN(8)
	cfg := sim.DefaultTLBOnlyConfig(400_000)
	pols, err := sim.Factories([]string{"lru", "random", "srrip", "ship", "ghrp", "chirp"})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cache := l2stream.NewCache(0)
				rs, err := sim.RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg,
					sim.SuiteOptions{Workers: workers, StreamCache: cache})
				if err != nil {
					b.Fatal(err)
				}
				if len(rs) != len(ws)*len(pols) {
					b.Fatalf("got %d results", len(rs))
				}
				cache.Close()
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkExtendedBaselines(b *testing.B) {
	o := tinyOptions()
	for i := 0; i < b.N; i++ {
		r, err := cached(o, experiments.Baselines)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range r.Averages {
			switch a.Policy {
			case "sdbp", "drrip", "perceptron":
				b.ReportMetric(a.ReductionPct, a.Policy+"_red_%")
			}
		}
	}
}

func BenchmarkMixedPageSizes(b *testing.B) {
	o := tinyOptions()
	o.Workloads = 6
	for i := 0; i < b.N; i++ {
		r, err := experiments.Mixed(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanReductionPct, "mpki_red_%")
		b.ReportMetric(r.ReachSavedPct, "reach_saved_%")
	}
}

func BenchmarkConsolidated(b *testing.B) {
	ws := workloads.SuiteN(4)
	cfg := sim.DefaultConsolidatedConfig(300_000)
	for i := 0; i < b.N; i++ {
		lru, err := sim.RunConsolidated(ws, policy.NewLRU(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		ch, err := sim.RunConsolidated(ws, core.MustNew(core.DefaultConfig()), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if lru.MPKI > 0 {
			b.ReportMetric((lru.MPKI-ch.MPKI)/lru.MPKI*100, "chirp_red_%")
		}
	}
}

func BenchmarkPrefetchCompose(b *testing.B) {
	o := tinyOptions()
	for i := 0; i < b.N; i++ {
		r, err := cached(o, experiments.Prefetch)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Distance == 4 {
				b.ReportMetric(row.MeanMPKI, row.Policy+"_d4_mpki")
			}
		}
	}
}
