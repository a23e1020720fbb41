// Command chirpbench is the repository's benchmark: it times the real
// chirpexp binary, built from the tree under test, on four workloads
// that stress different layers of the simulator, and it traces the
// same workloads in-process to say which layer owns the time.
//
//	chirpbench run     [-reps 5] [-seed 1] [-o out.json] [-pin]
//	chirpbench trace   [-seed 1] [-o out.json] [-spans spans.jsonl]
//	chirpbench compare a.json b.json
//	chirpbench measure --workload NAME --seed N --seconds S --trace 0|1
//
// run reports the end-to-end metrics (chirpexp as a child process,
// tracing off); trace reports the per-layer metrics (one serial traced
// pass calling each layer's public functions); compare judges two run
// results against the bounds; measure is the single-workload,
// time-bounded entry point BENCHMARK.json names. Run it through the
// bench/chirpbench script from the repository root. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: chirpbench run|trace|compare|measure [flags]")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch args[0] {
	case "run":
		err = cmdRun(ctx, args[1:], stdout, stderr)
	case "trace":
		err = cmdTrace(ctx, args[1:], stdout, stderr)
	case "compare":
		var worse bool
		worse, err = cmdCompare(args[1:], stdout)
		if err == nil && worse {
			return 1
		}
	case "measure":
		err = cmdMeasure(ctx, args[1:], stdout, stderr)
	default:
		err = fmt.Errorf("unknown command %q", args[0])
	}
	if err != nil {
		fmt.Fprintf(stderr, "chirpbench: %v\n", err)
		return 1
	}
	return 0
}

// runE2E measures the workloads: each one's set-up first, then reps
// rounds interleaving the workloads round-robin, so slow drift of a
// shared host spreads over all of them.
func runE2E(ctx context.Context, h *harness, ws []workload, seed uint64, reps int, log io.Writer) (*runResult, error) {
	sessions := make([]*session, len(ws))
	defer func() {
		for _, s := range sessions {
			if s != nil {
				s.close()
			}
		}
	}()
	for i, w := range ws {
		s, err := h.newSession(ctx, w, seed)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	samples := make([][]sample, len(ws))
	failed := make([]int, len(ws))
	var errs []error
	for r := 0; r < reps; r++ {
		for i, s := range sessions {
			smp, err := s.rep(ctx)
			if err != nil {
				failed[i]++
				fmt.Fprintf(log, "%s rep %d: FAILED: %v\n", s.w.Name, r+1, err)
				if errors.Is(err, errMismatch) {
					errs = append(errs, fmt.Errorf("%s: %w", s.w.Name, err))
				}
				continue
			}
			samples[i] = append(samples[i], smp)
			fmt.Fprintf(log, "%s rep %d: %.3fs wall, %.3fs cpu, %.0f MiB rss\n", s.w.Name, r+1, smp.Wall, smp.CPU, smp.RSSMiB)
		}
	}
	res := &runResult{Seed: seed, Reps: reps}
	pinned, err := loadPins(filepath.Join(h.root, pinsFile))
	if err != nil {
		return nil, err
	}
	digests := map[string]string{}
	for i, s := range sessions {
		if err := s.oracle(ctx); err != nil {
			errs = append(errs, err)
		}
		if err := pinned.check(s.w, seed, s.digest); err != nil {
			errs = append(errs, err)
		}
		digests[s.w.Name] = s.digest
		dir := ""
		if s.w.Store != storeNone {
			dir = "<dir>"
		}
		res.Workloads = append(res.Workloads, runWorkload{
			Name: s.w.Name, Args: s.w.args(seed, h.workers, dir), Digest: s.digest,
			Attempted: reps, Failed: failed[i], Metrics: e2eSummaries(s, samples[i], failed[i], reps),
		})
	}
	if c, w := digests["mpki-cold"], digests["mpki-warm"]; c != "" && w != "" && c != w {
		errs = append(errs, fmt.Errorf("mpki-warm output %.12s differs from mpki-cold %.12s", w, c))
	}
	return res, errors.Join(errs...)
}

// e2eSummaries reduces a workload's successful runs to the end-to-end
// metrics.
func e2eSummaries(s *session, smps []sample, failed, attempted int) map[string]summary {
	col := func(f func(sample) float64) []float64 {
		out := make([]float64, len(smps))
		for i, x := range smps {
			out[i] = f(x)
		}
		return out
	}
	started := col(func(x sample) float64 { return x.Started })
	vals := map[string][]float64{
		"wall_s":           col(func(x sample) float64 { return x.Wall }),
		"cpu_s":            col(func(x sample) float64 { return x.CPU }),
		"sim_minstr_per_s": col(func(x sample) float64 { return s.minstr() / x.Wall }),
		"peak_rss_mib":     col(func(x sample) float64 { return x.RSSMiB }),
		"store_mib":        col(func(x sample) float64 { return x.StoreMiB }),
	}
	out := map[string]summary{}
	for _, m := range e2eMetrics {
		switch m.Name {
		case "setup_s":
			out[m.Name] = summarize(m.Unit, s.setup, s.setupT)
		case "failed_frac":
			out[m.Name] = failedFrac(failed, attempted)
		default:
			out[m.Name] = summarize(m.Unit, vals[m.Name], started)
		}
	}
	return out
}

func cmdRun(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed (chirpexp -seed)")
	out := fs.String("o", "", "write the result JSON here, or add the runs to a result of this host, commit and seed")
	reps := fs.Int("reps", 5, "measured invocations per workload")
	pin := fs.Bool("pin", false, "record this seed's output digests in "+pinsFile)
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := newHarness(ctx, ".", stderr)
	if err != nil {
		return err
	}
	defer h.close()
	res, err := runE2E(ctx, h, benchWorkloads, *seed, *reps, stderr)
	if res == nil {
		return err
	}
	printRun(stdout, res)
	if *pin && err == nil {
		p, perr := loadPins(filepath.Join(h.root, pinsFile))
		if perr != nil {
			return perr
		}
		for i, w := range benchWorkloads {
			p.set(w, *seed, res.Workloads[i].Digest)
		}
		if perr := p.write(filepath.Join(h.root, pinsFile)); perr != nil {
			return perr
		}
	}
	if *out != "" {
		if werr := writeResult(*out, resultFile{Host: probeHost(h.root, h.workers), Run: res}); werr != nil {
			return werr
		}
	}
	return err
}

func printRun(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "%-12s %-17s %12s %12s %12s %3s  %s\n", "workload", "metric", "median", "min", "max", "n", "unit")
	for _, wl := range res.Workloads {
		for _, m := range e2eMetrics {
			s := wl.Metrics[m.Name]
			fmt.Fprintf(w, "%-12s %-17s %12.4f %12.4f %12.4f %3d  %s\n", wl.Name, m.Name, s.Median, s.Min, s.Max, s.N, s.Unit)
		}
	}
}

// traceWorkloads runs one traced pass of each workload and checks it.
func traceWorkloads(ctx context.Context, h *harness, ws []workload, seed uint64, spansOut io.Writer, log io.Writer) (*traceResult, error) {
	res := &traceResult{Seed: seed}
	var errs []error
	for _, w := range ws {
		s, err := h.newSession(ctx, w, seed)
		if err != nil {
			return nil, err
		}
		tp, err := s.tracedRun(ctx)
		s.close()
		if tp == nil {
			return nil, err
		}
		if err != nil {
			errs = append(errs, err)
		}
		fmt.Fprintf(log, "%s: traced in %.2fs, layers cover %.1f%% of it less probes\n",
			w.Name, tp.Metrics["traced.wall_s"], 100*tp.Metrics["traced.layer_sum_frac"])
		if spansOut != nil {
			enc := json.NewEncoder(spansOut)
			for _, sp := range tp.Spans {
				if err := enc.Encode(struct {
					Workload string `json:"bench_workload"`
					span
				}{w.Name, sp}); err != nil {
					return nil, err
				}
			}
		}
		tw := traceWorkload{Name: w.Name, JobTailQuantile: tp.TailQ, Metrics: map[string]metric{}}
		for _, lm := range layerMetrics() {
			tw.Metrics[lm.Name] = metric{Value: tp.Metrics[lm.Name], Unit: lm.Unit}
		}
		res.Workloads = append(res.Workloads, tw)
	}
	return res, errors.Join(errs...)
}

func cmdTrace(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed (chirpexp -seed)")
	out := fs.String("o", "", "write the result JSON here")
	spans := fs.String("spans", "", "write every span as JSON lines here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := newHarness(ctx, ".", stderr)
	if err != nil {
		return err
	}
	defer h.close()
	var spansOut io.Writer
	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			return err
		}
		defer f.Close()
		spansOut = f
	}
	res, err := traceWorkloads(ctx, h, benchWorkloads, *seed, spansOut, stderr)
	if res == nil {
		return err
	}
	printTrace(stdout, res)
	if *out != "" {
		if werr := writeResult(*out, resultFile{Host: probeHost(h.root, h.workers), Trace: res}); werr != nil {
			return werr
		}
	}
	return err
}

func printTrace(w io.Writer, res *traceResult) {
	fmt.Fprintf(w, "%-32s", "metric")
	for _, tw := range res.Workloads {
		fmt.Fprintf(w, " %14s", tw.Name)
	}
	fmt.Fprintf(w, "  %-9s %s\n", "unit", "should move")
	for _, l := range layers {
		moves := strings.Join(l.Moves, ",") + " on " + strings.Join(l.On, ",")
		if l.Flat != nil {
			moves += "; flat on " + strings.Join(l.Flat, ",")
		}
		if l.Moves == nil {
			moves = "checks the traced run itself"
		}
		for _, lm := range l.Metrics {
			fmt.Fprintf(w, "%-32s", lm.Name)
			for _, tw := range res.Workloads {
				fmt.Fprintf(w, " %14.6g", tw.Metrics[lm.Name].Value)
			}
			fmt.Fprintf(w, "  %-9s %s\n", lm.Unit, moves)
		}
	}
	for _, tw := range res.Workloads {
		q := fmt.Sprintf("p%g", 100*tw.JobTailQuantile)
		if tw.JobTailQuantile == 1 {
			q = "maximum"
		}
		fmt.Fprintf(w, "%s: engine.job_tail_ms is the %s\n", tw.Name, q)
	}
}

// resultLine is measure's result, the last line of its stdout.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// cmdMeasure runs one workload for about -seconds: with -trace 0 as many
// measured invocations as fit, reporting the median of each published
// end-to-end metric; with -trace 1 as many traced passes as fit,
// reporting the median of each per-layer metric.
func cmdMeasure(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement time")
	traced := fs.Int("trace", 0, "1 = per-layer metrics from traced passes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	h, err := newHarness(ctx, ".", stderr)
	if err != nil {
		return err
	}
	defer h.close()
	s, err := h.newSession(ctx, w, *seed)
	if err != nil {
		return err
	}
	defer s.close()

	window := time.Duration(*seconds) * time.Second
	line := resultLine{Correct: true, Metrics: map[string]metric{}}
	var errs []error
	start := time.Now()
	if *traced == 0 {
		var smps []sample
		for line.Attempted == 0 || time.Since(start) < window {
			line.Attempted++
			smp, err := s.rep(ctx)
			if err != nil {
				line.Failed++
				if errors.Is(err, errMismatch) {
					errs = append(errs, err)
				}
				fmt.Fprintf(stderr, "%s: FAILED: %v\n", w.Name, err)
				if ctx.Err() != nil {
					return ctx.Err()
				}
				continue
			}
			smps = append(smps, smp)
		}
		if len(smps) == 0 {
			return fmt.Errorf("%s: every run failed", w.Name)
		}
		if err := s.oracle(ctx); err != nil {
			errs = append(errs, err)
		}
		sums := e2eSummaries(s, smps, line.Failed, line.Attempted)
		for _, m := range e2eMetrics {
			if m.Published {
				line.Metrics[m.Name] = metric{Value: sums[m.Name].Median, Unit: m.Unit}
			}
		}
		fmt.Fprintf(stderr, "%s: %d runs, wall median %.3fs\n", w.Name, len(smps), sums["wall_s"].Median)
	} else {
		per := map[string][]float64{}
		for line.Attempted == 0 || time.Since(start) < window {
			line.Attempted++
			tp, err := s.tracedRun(ctx)
			if err != nil {
				line.Failed++
				errs = append(errs, err)
				fmt.Fprintf(stderr, "%s: traced pass FAILED: %v\n", w.Name, err)
			}
			if tp == nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				continue
			}
			for k, v := range tp.Metrics {
				per[k] = append(per[k], v)
			}
		}
		if len(per) == 0 {
			return fmt.Errorf("%s: every traced pass failed", w.Name)
		}
		for _, lm := range layerMetrics() {
			line.Metrics[lm.Name] = metric{Value: median(per[lm.Name]), Unit: lm.Unit}
		}
		fmt.Fprintf(stderr, "%s: %d traced passes\n", w.Name, line.Attempted)
	}
	pinned, err := loadPins(filepath.Join(h.root, pinsFile))
	if err != nil {
		return err
	}
	if err := pinned.check(w, *seed, s.digest); err != nil {
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		line.Correct = false
		fmt.Fprintf(stderr, "%s: INCORRECT: %v\n", w.Name, err)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}
