// Command chirpsim simulates one workload (or one trace file) under
// one or more L2 TLB replacement policies and prints MPKI, and — with
// -timing — IPC under the Table II machine.
//
//	chirpsim -workload db-000 -policies lru,srrip,chirp -instr 2000000
//	chirpsim -trace t.chtr -policies lru,chirp -timing -penalty 150
//	chirpsim -workload db-000 -describe   # program model as JSON
//	chirpsim -list
//
// With -workload-spec the workload population comes from a declarative
// spec (a registry name like "default", or a JSON file; see
// internal/workloads/spec). A spec with clients compiles to a combined
// multi-tenant workload (the default subject) plus per-tenant views;
// -seed overrides the document's master seed:
//
//	chirpsim -workload-spec examples/specs/multitenant.json -policies lru,chirp
//	chirpsim -workload-spec spec.json -workload mix/tenant-a -seed 7
//	chirpsim -workload-spec spec.json -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "suite workload name (e.g. db-000)")
	workloadSpec := flag.String("workload-spec", "", "workload spec: a built-in registry name (e.g. \"default\") or a JSON spec file; its compiled workloads replace the built-in suite")
	seed := flag.Uint64("seed", 0, "master seed for -workload-spec; overrides the spec document's seed")
	traceFile := flag.String("trace", "", "binary trace file (alternative to -workload)")
	policies := flag.String("policies", "lru,random,srrip,ship,ghrp,chirp", "comma-separated policy list")
	instr := flag.Uint64("instr", 2_000_000, "instruction budget")
	timing := flag.Bool("timing", false, "run the full timing model (IPC) instead of TLB-only")
	penalty := flag.Uint64("penalty", 150, "L2 TLB miss penalty in cycles (timing mode)")
	list := flag.Bool("list", false, "list policies and suite workloads, then exit")
	describe := flag.Bool("describe", false, "print the workload's program model as JSON and exit")
	workers := flag.Int("workers", 0, "parallel policy runs (0 = GOMAXPROCS)")
	l2cache := flag.Int64("l2cache", 0, "L2 event-stream cache budget in MiB for TLB-only runs: the trace is generated and L1-filtered once and replayed per policy (0 = 256 MiB default, negative = disable capture/replay)")
	capturedir := flag.String("capturedir", "", "persistent capture directory: captured L2 event streams are stored here (content-addressed) and reused by later runs in any process sharing the directory")
	capturedirMax := flag.Int64("capturedir-max-bytes", 0, "byte budget for -capturedir: least-recently-used captures (and their derived sidecars) are evicted to stay under it (0 = unbounded)")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint file; completed policies are restored, not re-run")
	metricsAddr := flag.String("metrics", "", "serve /metrics (Prometheus), /debug/vars (JSON) and /debug/pprof on this address (e.g. localhost:8080)")
	manifest := flag.String("manifest", "", "append a JSONL run manifest (run identity + per-job metric deltas) to this file")
	progress := flag.Duration("progress", 0, "print a progress line to stderr at this interval (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Master-seed supremacy needs set-detection, not just a value: an
	// explicit `-seed 0` must still override the document's seed.
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	if seedSet && *workloadSpec == "" {
		fatal("-seed requires -workload-spec (suite workload seeds are part of their identity)")
	}
	var compiled *spec.Compiled
	if *workloadSpec != "" {
		if *traceFile != "" {
			fatal("-workload-spec and -trace are mutually exclusive")
		}
		s, err := spec.Resolve(*workloadSpec)
		if err != nil {
			fatal("%v", err)
		}
		compiled, err = spec.Compile(s, spec.Options{Seed: *seed, SeedSet: seedSet})
		if err != nil {
			fatal("%v", err)
		}
	}
	// lookup resolves a workload name against the compiled spec when
	// one is loaded, the built-in suite otherwise.
	lookup := func(name string) *workloads.Workload {
		if compiled != nil {
			return compiled.ByName(name)
		}
		return workloads.ByName(name)
	}
	// resolve picks the run subject: a named workload, or the spec's
	// combined population when -workload is omitted.
	resolve := func() *workloads.Workload {
		if *workload != "" {
			w := lookup(*workload)
			if w == nil {
				fatal("unknown workload %q (try -list)", *workload)
			}
			return w
		}
		if compiled != nil && compiled.Combined() != nil {
			return compiled.Combined()
		}
		return nil
	}

	if *describe {
		w := resolve()
		if w == nil {
			fatal("-describe requires -workload (or a -workload-spec with clients)")
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(w.Describe()); err != nil {
			fatal("%v", err)
		}
		return 0
	}

	if *list {
		fmt.Println("policies:", strings.Join(sim.PolicyNames(), " "))
		if compiled != nil {
			fmt.Printf("workloads of spec %s (hash %s, seed %d):\n", compiled.Spec.Name, compiled.Hash, compiled.Seed)
			for _, w := range compiled.Workloads() {
				fmt.Printf("  %s (%s, %s)\n", w.Name, w.Category, w.Profile())
			}
			return 0
		}
		fmt.Println("workloads: the 870-entry suite, named <category>-<index>:")
		fmt.Println("  categories:", strings.Join(workloads.Categories, " "))
		fmt.Println("  e.g. spec-000 … spec-108, db-000 …, crypto-000 …")
		fmt.Println("specs: built-in", strings.Join(spec.Names(), " "), "or a JSON file via -workload-spec")
		return 0
	}

	// Validate the flag set before any resources (profile, checkpoint)
	// are open: fatal() bypasses their deferred teardown.
	names := strings.Split(*policies, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}
	factories, err := sim.Factories(names)
	if err != nil {
		fatal("%v", err)
	}
	w := resolve()
	subject := *traceFile
	specHash := ""
	switch {
	case w != nil:
		subject = w.Name
		specHash = w.SpecHash
	case *traceFile != "":
	default:
		fatal("one of -workload, -workload-spec or -trace is required (see -list)")
	}
	openSource := func() (trace.Source, error) {
		if w != nil {
			return trace.NewLimit(w.Source(), *instr), nil
		}
		fs, err := trace.OpenFile(*traceFile)
		if err != nil {
			return nil, err
		}
		return trace.NewLimit(fs, *instr), nil
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopProf, err := engine.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
		}
	}()
	meta := fmt.Sprintf("chirpsim workload=%s trace=%s spec=%s instr=%d timing=%v penalty=%d",
		subject, *traceFile, specHash, *instr, *timing, *penalty)

	if *metricsAddr != "" {
		bound, stopMetrics, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
			return 1
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "chirpsim: metrics on http://%s/metrics\n", bound)
	}

	cfg := engine.Config{Workers: *workers}
	var sinks []engine.Sink
	if *progress > 0 {
		sinks = append(sinks, engine.NewReporter(os.Stderr, *progress))
	}
	if *manifest != "" {
		man, err := obs.OpenManifest(*manifest, obs.Default, meta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
			return 1
		}
		defer func() {
			if err := man.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
			}
		}()
		sinks = append(sinks, engine.ManifestSink(man))
	}
	if len(sinks) > 0 {
		cfg.Sink = engine.MultiSink(sinks...)
	}
	if *checkpoint != "" {
		ck, err := engine.Open(*checkpoint, meta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
			return 1
		}
		defer ck.Close()
		cfg.Checkpoint = ck
	}

	// TLB-only runs capture the policy-invariant L2 event stream once
	// and replay it under each policy (the timing model needs the full
	// per-instruction stream, so -timing runs its own fused pass).
	var streams *l2stream.Cache
	if !*timing && *l2cache >= 0 {
		if *capturedir != "" {
			streams, err = l2stream.NewPersistent(*l2cache<<20, *capturedir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
				return 1
			}
			streams.SetStoreMaxBytes(*capturedirMax)
		} else {
			streams = l2stream.NewCache(*l2cache<<20, "")
		}
		defer streams.Close()
	}

	// fused runs every policy in one engine job: the timing pipeline
	// drives all L2 TLBs from one front-end pass (pipeline.NewMulti),
	// and TLB-only runs capture (or load) the stream and replay every
	// policy's TLB in one pass over the event view (sim.ReplayMulti).
	// Rows stay in -policies order, so the first policy remains the
	// comparison baseline.
	var fused func(context.Context) ([]policyRow, error)
	switch {
	case *timing:
		fused = func(context.Context) ([]policyRow, error) {
			l2 := make([]tlb.Policy, len(factories))
			for i, f := range factories {
				l2[i] = f.New()
			}
			src, err := openSource()
			if err != nil {
				return nil, err
			}
			if c, ok := src.(io.Closer); ok {
				defer c.Close()
			}
			m, err := pipeline.NewMulti(pipeline.DefaultConfig(*instr, *penalty), l2,
				func() tlb.Policy { return policy.NewLRU() })
			if err != nil {
				return nil, err
			}
			rs, err := m.RunMulti(src)
			if err != nil {
				return nil, err
			}
			rows := make([]policyRow, len(rs))
			for i, res := range rs {
				rows[i] = policyRow{MPKI: res.MPKI, IPC: res.IPC, BranchAccuracy: res.BranchAccuracy}
			}
			return rows, nil
		}
	case streams != nil:
		pf := make([]sim.PolicyFactory, len(factories))
		for i, f := range factories {
			pf[i] = f.New
		}
		fused = func(jctx context.Context) ([]policyRow, error) {
			rs, err := sim.RunMulti(jctx, sim.RunSpec{
				Name:     subject,
				SpecHash: specHash,
				Open:     openSource,
				Config:   sim.DefaultTLBOnlyConfig(*instr),
				Cache:    streams,
			}, pf)
			if err != nil {
				return nil, err
			}
			rows := make([]policyRow, len(rs))
			for i, res := range rs {
				rows[i] = policyRow{MPKI: res.MPKI, Efficiency: res.Efficiency, TableRate: res.TableAccessRate}
			}
			return rows, nil
		}
	}

	var results []policyRow
	if fused != nil {
		jobs := []engine.Job[[]policyRow]{{
			Key: engine.Key{Workload: subject, Policy: strings.Join(names, "+")},
			Run: fused,
		}}
		grouped, err := engine.Run(ctx, jobs, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
			return 1
		}
		results = grouped[0]
	} else {
		// Capture/replay is off (negative -l2cache): one engine job per
		// policy runs the full trace directly; results stay in
		// -policies order.
		jobs := make([]engine.Job[policyRow], 0, len(factories))
		for _, f := range factories {
			f := f
			jobs = append(jobs, engine.Job[policyRow]{
				Key: engine.Key{Workload: subject, Policy: f.Name},
				Run: func(jctx context.Context) (policyRow, error) {
					res, err := sim.Run(jctx, sim.RunSpec{
						Name:     subject,
						SpecHash: specHash,
						Open:     openSource,
						Policy:   f.New,
						Config:   sim.DefaultTLBOnlyConfig(*instr),
					})
					if err != nil {
						return policyRow{}, err
					}
					return policyRow{MPKI: res.MPKI, Efficiency: res.Efficiency, TableRate: res.TableAccessRate}, nil
				},
			})
		}
		results, err = engine.Run(ctx, jobs, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
			return 1
		}
	}

	var rows [][]string
	base := results[0]
	for i, res := range results {
		if *timing {
			rows = append(rows, []string{
				names[i],
				fmt.Sprintf("%.4f", res.MPKI),
				fmt.Sprintf("%+.2f%%", stats.Reduction(base.MPKI, res.MPKI)),
				fmt.Sprintf("%.4f", res.IPC),
				fmt.Sprintf("%+.2f%%", (res.IPC/base.IPC-1)*100),
				fmt.Sprintf("%.3f", res.BranchAccuracy),
			})
		} else {
			rows = append(rows, []string{
				names[i],
				fmt.Sprintf("%.4f", res.MPKI),
				fmt.Sprintf("%+.2f%%", stats.Reduction(base.MPKI, res.MPKI)),
				fmt.Sprintf("%.3f", res.Efficiency),
				fmt.Sprintf("%.3f", res.TableRate),
			})
		}
	}
	if *timing {
		err = stats.Table(os.Stdout, []string{"policy", "MPKI", "vs first", "IPC", "speedup", "branch acc"}, rows)
	} else {
		err = stats.Table(os.Stdout, []string{"policy", "MPKI", "vs first", "efficiency", "table rate"}, rows)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
		return 1
	}
	return 0
}

// policyRow is one rendered measurement; exported fields so it
// survives a JSON checkpoint round-trip.
type policyRow struct {
	MPKI           float64
	IPC            float64
	Efficiency     float64
	TableRate      float64
	BranchAccuracy float64
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chirpsim: "+format+"\n", args...)
	os.Exit(1)
}
