// Command chirpexp regenerates the paper's evaluation artifacts: every
// figure and table of §VI plus this reproduction's extensions.
//
//	chirpexp -exp fig7 -n 870 -instr 2000000
//	chirpexp -exp all  -n 128 -instr 1000000
//
// Experiments: fig1 fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 table1
// table2, the extensions opt walker baselines mixed consolidated
// prefetch, or all. MPKI experiments default to the full suite; timing
// experiments are much slower, so scale -n down (the shapes stabilise
// quickly).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/experiments"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

type runner struct {
	name string
	desc string
	run  func(experiments.Options) error
}

func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "fig7", "experiment id (or comma list, or 'all')")
	n := flag.Int("n", 0, "suite prefix size (0 = full 870-workload suite)")
	workloadSpec := flag.String("workload-spec", "", "workload spec (registry name or JSON file) replacing the built-in suite; -n still selects a prefix of its compiled workloads")
	seed := flag.Uint64("seed", 0, "master seed for -workload-spec; overrides the spec document's seed")
	instr := flag.Uint64("instr", 2_000_000, "instructions per trace")
	penalty := flag.Uint64("penalty", 150, "L2 TLB miss penalty in cycles for timing experiments")
	workers := flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	l2cache := flag.Int64("l2cache", 0, "L2 event-stream cache budget in MiB, shared across the selected experiments (0 = 256 MiB default, negative = per-experiment caches only)")
	capturedir := flag.String("capturedir", "", "persistent capture directory: captured L2 event streams are stored here (content-addressed) and reused by later runs in any process sharing the directory")
	capturedirMax := flag.Int64("capturedir-max-bytes", 0, "byte budget for -capturedir: least-recently-used captures (and their derived sidecars) are evicted to stay under it (0 = unbounded)")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint file: completed (workload, policy) runs are restored from it and new ones appended, so a killed sweep resumes where it stopped")
	metricsAddr := flag.String("metrics", "", "serve /metrics (Prometheus), /debug/vars (JSON) and /debug/pprof on this address (e.g. localhost:8080)")
	manifest := flag.String("manifest", "", "append a JSONL run manifest (run identity + per-job metric deltas) to this file")
	progress := flag.Duration("progress", 0, "print a progress line to stderr at this interval (e.g. 10s; 0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	if seedSet && *workloadSpec == "" {
		fmt.Fprintln(os.Stderr, "chirpexp: -seed requires -workload-spec")
		return 2
	}
	var suite []*workloads.Workload
	specLabel := ""
	if *workloadSpec != "" {
		s, err := spec.Resolve(*workloadSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpexp: %v\n", err)
			return 2
		}
		compiled, err := spec.Compile(s, spec.Options{Seed: *seed, SeedSet: seedSet})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpexp: %v\n", err)
			return 2
		}
		suite = compiled.Workloads()
		specLabel = compiled.Hash
	}

	// Ctrl-C / SIGTERM stop dispatching new simulations, drain the
	// in-flight ones and leave the checkpoint resumable.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopProf, err := engine.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chirpexp: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "chirpexp: %v\n", err)
		}
	}()

	// The same fingerprint guards the checkpoint and names the manifest
	// run: resumed rows must be exchangeable with fresh ones. The
	// experiment list is deliberately excluded: scopes already namespace
	// per-experiment keys, so one file covers any subset of `-exp all`.
	meta := fmt.Sprintf("chirpexp n=%d instr=%d penalty=%d spec=%s", *n, *instr, *penalty, specLabel)

	if *metricsAddr != "" {
		bound, stopMetrics, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpexp: %v\n", err)
			return 1
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "chirpexp: metrics on http://%s/metrics\n", bound)
	}

	o := experiments.Options{
		Workloads:    *n,
		Suite:        suite,
		Instructions: *instr,
		WalkPenalty:  *penalty,
		Workers:      *workers,
		Ctx:          ctx,
	}
	var sinks []engine.Sink
	if *manifest != "" {
		man, err := obs.OpenManifest(*manifest, obs.Default, meta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpexp: %v\n", err)
			return 1
		}
		defer func() {
			if err := man.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "chirpexp: %v\n", err)
			}
		}()
		sinks = append(sinks, engine.ManifestSink(man))
	}
	if *l2cache >= 0 {
		// One shared stream cache means `-exp all` captures each
		// workload's L2 event stream once across every MPKI experiment
		// (the experiments own per-call caches when this is nil). With
		// -capturedir the captures also persist on disk, so a re-run
		// (or another process) skips the capture passes entirely.
		var streams *l2stream.Cache
		if *capturedir != "" {
			var err error
			streams, err = l2stream.NewPersistent(*l2cache<<20, *capturedir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chirpexp: %v\n", err)
				return 1
			}
			streams.SetStoreMaxBytes(*capturedirMax)
		} else {
			streams = l2stream.NewCache(*l2cache << 20)
		}
		defer streams.Close()
		o.StreamCache = streams
	}
	if *progress > 0 {
		sinks = append(sinks, engine.NewReporter(os.Stderr, *progress))
	}
	if len(sinks) > 0 {
		o.Sink = engine.MultiSink(sinks...)
	}
	if *checkpoint != "" {
		ck, err := engine.Open(*checkpoint, meta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpexp: %v\n", err)
			return 1
		}
		defer ck.Close()
		o.Checkpoint = ck
	}

	out := os.Stdout
	runners := []runner{
		{"fig1", "TLB efficiency heat map (§VI-D)", func(o experiments.Options) error {
			r, err := experiments.Fig1(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"fig2", "speedup vs PC history length (§III)", func(o experiments.Options) error {
			r, err := experiments.Fig2(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"fig3", "ADALINE PC-bit salience (§III-A)", func(o experiments.Options) error {
			r, err := experiments.Fig3(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"fig6", "feature/optimisation ablation (§III)", func(o experiments.Options) error {
			r, err := experiments.Fig6(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"fig7", "MPKI S-curve and averages (§VI-A)", func(o experiments.Options) error {
			r, err := experiments.Fig7(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"fig8", "speedup at the headline walk penalty (§VI-C)", func(o experiments.Options) error {
			r, err := experiments.Fig8(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"fig9", "prediction-table size sweep (§VI-F)", func(o experiments.Options) error {
			r, err := experiments.Fig9(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"fig10", "speedup vs walk penalty (§VI-C)", func(o experiments.Options) error {
			r, err := experiments.Fig10(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"fig11", "prediction-table access-rate density (§VI-B)", func(o experiments.Options) error {
			r, err := experiments.Fig11(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"table1", "CHiRP storage budget", func(o experiments.Options) error {
			r, err := experiments.Table1(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"table2", "simulation parameters", func(o experiments.Options) error {
			return experiments.Table2(o, out)
		}},
		{"opt", "Bélády OPT upper bound (extension X1)", func(o experiments.Options) error {
			r, err := experiments.OptBound(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"walker", "radix page-walker vs fixed penalty (extension X2)", func(o experiments.Options) error {
			r, err := experiments.Walker(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"baselines", "extended baseline comparison (extension X3)", func(o experiments.Options) error {
			r, err := experiments.Baselines(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"mixed", "mixed 4KB/2MB page sizes (extension X4)", func(o experiments.Options) error {
			r, err := experiments.Mixed(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"consolidated", "ASID-tagged consolidation (extension X5)", func(o experiments.Options) error {
			r, err := experiments.Consolidated(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"prefetch", "sequential prefetch × replacement (extension X6)", func(o experiments.Options) error {
			r, err := experiments.Prefetch(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
		{"categories", "per-category MPKI breakdown", func(o experiments.Options) error {
			r, err := experiments.Categories(o)
			if err != nil {
				return err
			}
			return r.Write(out)
		}},
	}

	want := map[string]bool{}
	if *exp == "all" {
		for _, r := range runners {
			want[r.name] = true
		}
	} else {
		for _, name := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	known := map[string]bool{}
	for _, r := range runners {
		known[r.name] = true
	}
	for name := range want {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "chirpexp: unknown experiment %q\n", name)
			return 2
		}
	}

	for _, r := range runners {
		if !want[r.name] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(out, "== %s: %s ==\n", r.name, r.desc)
		if err := r.run(o); err != nil {
			fmt.Fprintf(os.Stderr, "chirpexp: %s: %v\n", r.name, err)
			return 1
		}
		fmt.Fprintf(out, "-- %s done in %v --\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
