package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// span is one call into a layer, recorded by the traced run around the
// layer's public function. Spans of one engine job share Job; a probe
// span repeats work to split its parent's time, and is excluded from
// the layer sum.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Job      int    `json:"job"`
	Name     string `json:"name"`
	Label    string `json:"label,omitempty"`
	Workload string `json:"workload"`
	Policy   string `json:"policy,omitempty"`
	Probe    bool   `json:"probe,omitempty"`
	// Spilled marks calls on a stream that overflowed the cache budget
	// and lives as a raw trace file: it records no events or accesses,
	// and its replays re-run the direct path.
	Spilled bool  `json:"spilled,omitempty"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Count is the span's unit of work: events for l2stream.get,
	// accesses for sim.replay, instructions for trace.gen and
	// pipeline.run.
	Count uint64 `json:"count"`
}

func (s span) dur() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// Span names and l2stream.get / sim.replay labels.
const (
	spanGen      = "trace.gen"
	spanGet      = "l2stream.get"
	spanReplay   = "sim.replay"
	spanPipeline = "pipeline.run"

	labelCapture  = "capture"
	labelDiskLoad = "disk_load"
	labelMemHit   = "mem_hit"
	labelBuild    = "build"
	labelLoad     = "load"
)

// counterNames are the obs counters the traced run reads around layer
// calls to label them.
var counterNames = []string{
	"chirp_l2stream_cache_misses_total",
	"chirp_l2stream_cache_disk_hits_total",
	"chirp_l2stream_cache_spills_total",
	"chirp_l2stream_cache_evictions_total",
	"chirp_l2stream_derived_builds_total",
	"chirp_l2stream_derived_disk_hits_total",
}

const (
	cMisses = iota
	cDiskHits
	cSpills
	cEvictions
	cViewBuilds
	cViewLoads
)

// counters reads the l2stream counters of the default obs registry.
// The handles are resolved once, after checking each name is
// registered, so reads around every call stay cheap and a renamed
// metric fails loudly instead of reading a fresh zero.
type counters []*obs.Counter

type counterValues []uint64

func resolveCounters() (counters, error) {
	snap := obs.Default.Snapshot()
	cs := make(counters, len(counterNames))
	for i, n := range counterNames {
		if _, ok := snap[n]; !ok {
			return nil, fmt.Errorf("obs counter %s is not registered", n)
		}
		cs[i] = obs.Default.Counter(n, "")
	}
	return cs, nil
}

func (cs counters) read() counterValues {
	v := make(counterValues, len(cs))
	for i, c := range cs {
		v[i] = c.Value()
	}
	return v
}

func (v counterValues) delta(prev counterValues, i int) uint64 { return v[i] - prev[i] }

// tracer runs one traced pass of a workload: every suite pass of its
// experiments, as serial engine jobs, with a span around each layer
// call.
type tracer struct {
	s      *session
	cache  *l2stream.Cache
	cs     counters
	t0     time.Time
	spans  []span
	job    int
	gen    map[string]bool // workloads whose trace.gen probe ran
	probes map[engine.Key]time.Duration
	lat    latencySink
}

// latencySink records each engine job's wall time.
type latencySink struct {
	mu  sync.Mutex
	ran map[engine.Key]time.Duration
}

func (l *latencySink) RunStart(int, int) {}
func (l *latencySink) RunEnd()           {}
func (l *latencySink) JobDone(k engine.Key, elapsed time.Duration, _ error) {
	l.mu.Lock()
	l.ran[k] = elapsed
	l.mu.Unlock()
}

func (t *tracer) add(sp span) int {
	sp.ID = len(t.spans) + 1
	sp.Job = t.job
	t.spans = append(t.spans, sp)
	return sp.ID
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// errLayerSum reports layer self times that do not add up to the
// traced wall time less probes within 5%: the spans miss where the
// time went.
var errLayerSum = errors.New("layer self times are not within 5% of the traced wall time less probes")

// tracedPass is one finished traced pass.
type tracedPass struct {
	Spans   []span
	Metrics map[string]float64
	TailQ   float64
}

// tracedRun runs one traced pass and checks it against the session's
// reference output.
func (s *session) tracedRun(ctx context.Context) (*tracedPass, error) {
	cs, err := resolveCounters()
	if err != nil {
		return nil, err
	}
	t := &tracer{s: s, cs: cs, gen: map[string]bool{}, probes: map[engine.Key]time.Duration{},
		lat: latencySink{ran: map[engine.Key]time.Duration{}}}
	dir := s.warm
	if s.w.Store == storeFresh {
		dir = s.h.freshDir()
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	if dir != "" {
		if t.cache, err = l2stream.NewPersistent(0, dir); err != nil {
			return nil, err
		}
		defer t.cache.Close()
	}

	before := cs.read()
	t.t0 = time.Now()
	var results []passResult
	for _, p := range s.w.passes() {
		vals, err := t.runPass(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("%s %s %s: %w", s.w.Name, p.Exp, p.Label, err)
		}
		results = append(results, passResult{Pass: p, Vals: vals})
	}
	wall := time.Since(t.t0).Seconds()
	after := cs.read()

	m, tailQ := t.layerMetrics(wall)
	m["l2stream.spills"] = float64(after.delta(before, cSpills))
	m["l2stream.evictions"] = float64(after.delta(before, cEvictions))
	m["sim.view_builds"] = float64(after.delta(before, cViewBuilds))
	m["sim.view_loads"] = float64(after.delta(before, cViewLoads))
	var byExt map[string]int64
	if dir != "" {
		if byExt, err = storeBytes(dir); err != nil {
			return nil, err
		}
	}
	for _, ext := range []string{"l2s", "l2d", "chtr"} {
		m["l2stream.store_"+ext+"_mib"] = float64(byExt[ext]) / (1 << 20)
	}

	var errs []error
	if err := crossCheck(s.ref, s.pop, results); err != nil {
		errs = append(errs, fmt.Errorf("%s: traced run disagrees with chirpexp: %w", s.w.Name, err))
	}
	if f := m["traced.layer_sum_frac"]; f < 0.95 || f > 1.05 {
		errs = append(errs, fmt.Errorf("%s: %w: %.3f", s.w.Name, errLayerSum, f))
	}
	return &tracedPass{Spans: t.spans, Metrics: m, TailQ: tailQ}, errors.Join(errs...)
}

// runPass runs one suite pass as engine jobs on one worker, at the
// granularity chirpexp schedules it: one job per workload for TLB-only
// passes (the fused suite path), one per (workload, policy) for timing.
func (t *tracer) runPass(ctx context.Context, p pass) ([][]float64, error) {
	scope := p.Exp + "/" + p.Label
	var jobs []engine.Job[[]float64]
	for _, w := range t.s.pop {
		if !p.Timing {
			jobs = append(jobs, engine.Job[[]float64]{
				Key: engine.Key{Scope: scope, Workload: w.Name},
				Run: func(context.Context) ([]float64, error) { return t.replayJob(w, p, scope) },
			})
			continue
		}
		for _, f := range p.Policies {
			jobs = append(jobs, engine.Job[[]float64]{
				Key: engine.Key{Scope: scope, Workload: w.Name, Policy: f.Name},
				Run: func(ctx context.Context) ([]float64, error) { return t.timingJob(ctx, w, f, p, scope) },
			})
		}
	}
	out, err := engine.Run(ctx, jobs, engine.Config{Workers: 1, Sink: &t.lat})
	if err != nil {
		return nil, err
	}
	if !p.Timing {
		return out, nil
	}
	vals := make([][]float64, len(t.s.pop))
	for i := range vals {
		for j := range p.Policies {
			vals[i] = append(vals[i], out[i*len(p.Policies)+j][0])
		}
	}
	return vals, nil
}

// genProbe drains the workload's bounded trace once, timing trace
// generation alone, so capture and pipeline spans can subtract it.
func (t *tracer) genProbe(w *workloads.Workload, key engine.Key, parent int) {
	if t.gen[w.Name] {
		return
	}
	t.gen[w.Name] = true
	start := time.Now()
	instr, _ := trace.CountInstructions(trace.NewLimit(w.Source(), t.s.w.Instr))
	end := time.Now()
	t.add(span{Parent: parent, Name: spanGen, Workload: w.Name, Probe: true,
		StartNS: t.ns(start), EndNS: t.ns(end), Count: instr})
	t.probes[key] += end.Sub(start)
}

// replayJob is one (workload, TLB-only pass) job: fetch the stream
// through the cache, then replay each policy of the pass on its own.
func (t *tracer) replayJob(w *workloads.Workload, p pass, scope string) ([]float64, error) {
	key := engine.Key{Scope: scope, Workload: w.Name}
	t.job++
	cfg := sim.DefaultTLBOnlyConfig(t.s.w.Instr)
	cfg.PrefetchDistance = p.Prefetch

	c0 := t.cs.read()
	start := time.Now()
	stream, err := sim.StreamFor(t.cache, w.Name, w.SpecHash, cfg, func() (trace.Source, error) {
		return trace.NewLimit(w.Source(), cfg.Instructions), nil
	})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	c1 := t.cs.read()
	label := labelMemHit
	switch {
	case c1.delta(c0, cMisses) > 0:
		label = labelCapture
	case c1.delta(c0, cDiskHits) > 0:
		label = labelDiskLoad
	}
	spilled := stream.Spilled()
	get := t.add(span{Name: spanGet, Label: label, Workload: w.Name, Spilled: spilled,
		StartNS: t.ns(start), EndNS: t.ns(end), Count: stream.Events()})
	if label == labelCapture {
		t.genProbe(w, key, get)
	}

	out := make([]float64, len(p.Policies))
	for j, f := range p.Policies {
		d0 := t.cs.read()
		start := time.Now()
		rs, err := sim.ReplayMulti(stream, []tlb.Policy{f.New()}, cfg)
		end := time.Now()
		if err != nil {
			return nil, err
		}
		d1 := t.cs.read()
		label := ""
		switch {
		case d1.delta(d0, cViewBuilds) > 0:
			label = labelBuild
		case d1.delta(d0, cViewLoads) > 0:
			label = labelLoad
		}
		id := t.add(span{Parent: get, Name: spanReplay, Label: label, Workload: w.Name, Policy: f.Name,
			Spilled: spilled, StartNS: t.ns(start), EndNS: t.ns(end), Count: stream.Accesses()})
		if label != "" {
			// The call built or loaded a derived view: repeat it on the
			// now-memoized stream to time the walk alone.
			start := time.Now()
			again, err := sim.ReplayMulti(stream, []tlb.Policy{f.New()}, cfg)
			end := time.Now()
			if err != nil {
				return nil, err
			}
			if again[0] != rs[0] {
				return nil, fmt.Errorf("%s/%s: replay on the memoized stream differs from the first", w.Name, f.Name)
			}
			t.add(span{Parent: id, Name: spanReplay, Label: label, Workload: w.Name, Policy: f.Name, Probe: true,
				StartNS: t.ns(start), EndNS: t.ns(end), Count: stream.Accesses()})
			t.probes[key] += end.Sub(start)
		}
		out[j] = rs[0].MPKI
	}
	return out, nil
}

// timingJob is one (workload, policy) timing-pipeline job.
func (t *tracer) timingJob(ctx context.Context, w *workloads.Workload, f sim.NamedFactory, p pass, scope string) ([]float64, error) {
	key := engine.Key{Scope: scope, Workload: w.Name, Policy: f.Name}
	t.job++
	t.genProbe(w, key, 0)
	start := time.Now()
	ipc, err := directRun(ctx, w, f, p, t.s.w.Instr)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	t.add(span{Name: spanPipeline, Workload: w.Name, Policy: f.Name,
		StartNS: t.ns(start), EndNS: t.ns(end), Count: t.s.w.Instr})
	return []float64{ipc}, nil
}

// layerMetrics turns the spans into per-layer self times and rates.
// Self times subtract the probes: capture is l2stream.get less the
// workload's trace.gen, a pipeline run is pipeline.run less trace.gen,
// and a sim.replay that built or loaded a view splits into the repeat
// (the walk) and the rest (the view). Spilled streams count no events
// or accesses, so their captures and replays count toward the layer
// times but not the per-event and per-access rates; their replay time
// is also reported alone. The non-probe spans should cover
// the traced wall time less the probes; what they leave is the
// engine's (and this harness's) overhead.
func (t *tracer) layerMetrics(wall float64) (map[string]float64, float64) {
	m := map[string]float64{}
	gen := map[string]span{}
	probeOf := map[int]span{}
	var probeS float64
	for _, sp := range t.spans {
		if !sp.Probe {
			continue
		}
		probeS += sp.dur()
		if sp.Name == spanGen {
			gen[sp.Workload] = sp
		} else {
			probeOf[sp.Parent] = sp
		}
	}
	genPer := func(w string) (float64, uint64) { g := gen[w]; return g.dur(), g.Count }

	var spanS, genS, captureS, capRateS, loadS, viewBuildS, viewLoadS, walkS, spilledS, pipeS float64
	var genInstr, capEvents, capInstr, loadEvents, accesses, pipeInstr uint64
	var gets, loads, hits, captures, runs float64
	walkBy := map[string]float64{}
	accBy := map[string]uint64{}
	for _, sp := range t.spans {
		if sp.Probe {
			continue
		}
		d := sp.dur()
		spanS += d
		switch sp.Name {
		case spanGet:
			gets++
			switch sp.Label {
			case labelCapture:
				g, n := genPer(sp.Workload)
				captures++
				genS += g
				genInstr += n
				captureS += d - g
				if !sp.Spilled {
					capRateS += d - g
					capInstr += n
					capEvents += sp.Count
				}
			case labelDiskLoad:
				loads++
				loadS += d
				loadEvents += sp.Count
			case labelMemHit:
				hits++
			}
		case spanReplay:
			walk := d
			if pr, ok := probeOf[sp.ID]; ok {
				walk = pr.dur()
				if sp.Label == labelBuild {
					viewBuildS += d - walk
				} else {
					viewLoadS += d - walk
				}
			}
			walkS += walk
			if sp.Spilled {
				spilledS += walk
				break
			}
			accesses += sp.Count
			walkBy[sp.Policy] += walk
			accBy[sp.Policy] += sp.Count
		case spanPipeline:
			g, n := genPer(sp.Workload)
			runs++
			genS += g
			genInstr += n
			pipeS += d - g
			pipeInstr += sp.Count
		}
	}
	perNS := func(s float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return s * 1e9 / float64(n)
	}
	m["trace.gen_s"] = genS
	m["trace.instructions"] = float64(genInstr)
	m["trace.gen_ns_per_instr"] = perNS(genS, genInstr)
	m["l2stream.captures"] = captures
	m["l2stream.capture_s"] = captureS
	m["l2stream.capture_ns_per_event"] = perNS(capRateS, capEvents)
	m["l2stream.events"] = float64(capEvents)
	m["l2stream.events_per_kinstr"] = 0
	if capInstr > 0 {
		m["l2stream.events_per_kinstr"] = float64(capEvents) / (float64(capInstr) / 1000)
	}
	m["l2stream.get_calls"] = gets
	m["l2stream.disk_loads"] = loads
	m["l2stream.mem_hit_ratio"] = 0
	if gets > 0 {
		m["l2stream.mem_hit_ratio"] = hits / gets
	}
	m["l2stream.load_s"] = loadS
	m["l2stream.load_ns_per_event"] = perNS(loadS, loadEvents)
	m["sim.view_build_s"] = viewBuildS
	m["sim.view_load_s"] = viewLoadS
	m["sim.walk_s"] = walkS
	m["sim.accesses"] = float64(accesses)
	m["sim.walk_ns_per_access"] = perNS(walkS-spilledS, accesses)
	m["sim.spilled_replay_s"] = spilledS
	for _, p := range sim.PaperPolicies {
		m["sim.walk_ns_per_access."+p] = perNS(walkBy[p], accBy[p])
	}
	m["pipeline.runs"] = runs
	m["pipeline.run_s"] = pipeS
	m["pipeline.ns_per_instr"] = perNS(pipeS, pipeInstr)

	// Job latencies net of the probes the traced run added to them.
	var lat []float64
	for k, d := range t.lat.ran {
		lat = append(lat, float64(d-t.probes[k])/1e6)
	}
	tailV, tailQ := tail(lat)
	m["engine.jobs"] = float64(len(lat))
	m["engine.job_p50_ms"] = median(lat)
	m["engine.job_tail_ms"] = tailV
	m["engine.overhead_s"] = wall - probeS - spanS
	m["traced.wall_s"] = wall
	m["traced.probe_s"] = probeS
	m["traced.layer_sum_frac"] = 0
	if wall > probeS {
		m["traced.layer_sum_frac"] = spanS / (wall - probeS)
	}
	return m, tailQ
}
