package main

import (
	"math"
	"sort"
)

// e2eMetric is one end-to-end metric of `chirpbench run`, measured on
// the chirpexp child process with tracing off. Bound is the share of
// the baseline median by which the metric may worsen before compare
// calls it a regression (an absolute amount when Abs is set).
type e2eMetric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Abs    bool
	// Published marks the metrics listed in BENCHMARK.json, which
	// measure prints. store_mib and failed_frac stay out: BENCHMARK.json
	// metrics must never read 0, and they do on some workloads (timing
	// keeps no store; a healthy run fails nothing). Failures still
	// appear in measure's failed count.
	Published bool
}

// The time and memory bounds are 25%, the largest BENCHMARK.json
// allows, because that is what a shared 2-core host supports: spreads
// over ten measure runs reached 13-19% in wall time and 14-19% in peak
// RSS (README.md has the measurements).
var e2eMetrics = []e2eMetric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Published: true},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Published: true},
	{Name: "sim_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25, Published: true},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25, Published: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Published: true},
	{Name: "store_mib", Unit: "MiB", Better: "lower", Bound: 0.01},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: 0, Abs: true},
}

// layer groups the per-layer metrics of one module of the simulator
// with the end-to-end metrics they should move and the workloads on
// which they should move them (and stay flat on). Written down before
// measuring, as the choosing-metrics method asks.
type layer struct {
	Module  string
	Moves   []string // end-to-end metrics; none for the traced run's self-checks
	On      []string
	Flat    []string
	Metrics []layerMetric
}

type layerMetric struct {
	Name   string
	Unit   string
	Better string
}

// allWorkloads names benchWorkloads, in order.
var allWorkloads = func() []string {
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.Name)
	}
	return names
}()

var layers = []layer{
	{Module: "trace", Moves: []string{"wall_s", "cpu_s"},
		On: []string{"timing", "mpki-cold", "tenant-long"}, Flat: []string{"mpki-warm"},
		Metrics: []layerMetric{
			{"trace.gen_s", "s", "lower"},
			{"trace.instructions", "count", "lower"},
			{"trace.gen_ns_per_instr", "ns", "lower"},
		}},
	{Module: "l2stream capture", Moves: []string{"wall_s", "setup_s"},
		On: []string{"mpki-cold", "tenant-long"}, Flat: []string{"mpki-warm", "timing"},
		Metrics: []layerMetric{
			{"l2stream.captures", "count", "lower"},
			{"l2stream.capture_s", "s", "lower"},
			{"l2stream.capture_ns_per_event", "ns", "lower"},
			{"l2stream.events", "count", "lower"},
			{"l2stream.events_per_kinstr", "1/kinstr", "lower"},
		}},
	{Module: "l2stream store/cache", Moves: []string{"wall_s", "store_mib"},
		On: []string{"mpki-warm", "mpki-cold"}, Flat: []string{"timing"},
		Metrics: []layerMetric{
			{"l2stream.get_calls", "count", "lower"},
			{"l2stream.disk_loads", "count", "lower"},
			{"l2stream.mem_hit_ratio", "ratio", "higher"},
			{"l2stream.load_s", "s", "lower"},
			{"l2stream.load_ns_per_event", "ns", "lower"},
			{"l2stream.store_l2s_mib", "MiB", "lower"},
			{"l2stream.store_l2d_mib", "MiB", "lower"},
			{"l2stream.store_chtr_mib", "MiB", "lower"},
		}},
	{Module: "l2stream budget", Moves: []string{"wall_s", "peak_rss_mib"},
		On: []string{"tenant-long"}, Flat: []string{"timing"},
		Metrics: []layerMetric{
			{"l2stream.spills", "count", "lower"},
			{"l2stream.evictions", "count", "lower"},
			{"sim.spilled_replay_s", "s", "lower"},
		}},
	{Module: "sim views", Moves: []string{"wall_s"},
		On: []string{"mpki-cold", "mpki-warm"}, Flat: []string{"timing"},
		Metrics: []layerMetric{
			{"sim.view_builds", "count", "lower"},
			{"sim.view_loads", "count", "lower"},
			{"sim.view_build_s", "s", "lower"},
			{"sim.view_load_s", "s", "lower"},
		}},
	{Module: "sim walkers", Moves: []string{"wall_s", "cpu_s"},
		On: []string{"mpki-warm", "mpki-cold"}, Flat: []string{"timing"},
		Metrics: []layerMetric{
			{"sim.walk_s", "s", "lower"},
			{"sim.accesses", "count", "lower"},
			{"sim.walk_ns_per_access", "ns", "lower"},
			{"sim.walk_ns_per_access.lru", "ns", "lower"},
			{"sim.walk_ns_per_access.random", "ns", "lower"},
			{"sim.walk_ns_per_access.srrip", "ns", "lower"},
			{"sim.walk_ns_per_access.ship", "ns", "lower"},
			{"sim.walk_ns_per_access.ghrp", "ns", "lower"},
			{"sim.walk_ns_per_access.chirp", "ns", "lower"},
		}},
	{Module: "pipeline", Moves: []string{"wall_s", "cpu_s"},
		On: []string{"timing"}, Flat: []string{"mpki-cold", "mpki-warm", "tenant-long"},
		Metrics: []layerMetric{
			{"pipeline.runs", "count", "lower"},
			{"pipeline.run_s", "s", "lower"},
			{"pipeline.ns_per_instr", "ns", "lower"},
		}},
	{Module: "engine", Moves: []string{"wall_s"}, On: allWorkloads,
		Metrics: []layerMetric{
			{"engine.jobs", "count", "lower"},
			{"engine.job_p50_ms", "ms", "lower"},
			{"engine.job_tail_ms", "ms", "lower"},
			{"engine.overhead_s", "s", "lower"},
		}},
	{Module: "traced run", On: allWorkloads,
		Metrics: []layerMetric{
			{"traced.wall_s", "s", "lower"},
			{"traced.probe_s", "s", "lower"},
			{"traced.layer_sum_frac", "ratio", "higher"},
		}},
}

// layerMetrics returns every per-layer metric in declaration order.
func layerMetrics() []layerMetric {
	var out []layerMetric
	for _, l := range layers {
		out = append(out, l.Metrics...)
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), so the spreads printed here match the ones the benchmark is
// accepted by. Fewer than two samples have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tail returns the latency at the highest standard percentile with at
// least ten samples beyond it, and that percentile; with fewer than
// twenty samples no percentile qualifies and the maximum is returned
// with q = 1.
func tail(xs []float64) (v, q float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 1
	}
	for _, q := range []float64{0.99, 0.98, 0.95, 0.9, 0.75, 0.5} {
		if float64(len(s))*(1-q) >= 10 {
			// Nearest rank.
			i := int(math.Ceil(q*float64(len(s)))) - 1
			return s[i], q
		}
	}
	return s[len(s)-1], 1
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
