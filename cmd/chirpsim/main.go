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
	"strings"

	"github.com/chirplab/chirp/internal/cli"
	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

func main() { os.Exit(run(flag.CommandLine, os.Args[1:])) }

func run(fs *flag.FlagSet, args []string) int {
	workload := fs.String("workload", "", "suite workload name (e.g. db-000)")
	traceFile := fs.String("trace", "", "binary trace file (alternative to -workload)")
	policies := fs.String("policies", "lru,random,srrip,ship,ghrp,chirp", "comma-separated policy list")
	instr := fs.Uint64("instr", 2_000_000, "instruction budget")
	timing := fs.Bool("timing", false, "run the full timing model (IPC) instead of TLB-only")
	penalty := fs.Uint64("penalty", 150, "L2 TLB miss penalty in cycles (timing mode)")
	list := fs.Bool("list", false, "list policies and suite workloads, then exit")
	describe := fs.Bool("describe", false, "print the workload's program model as JSON and exit")
	specFlags := cli.RegisterSpec(fs, "workload spec: a built-in registry name (e.g. \"default\") or a JSON spec file; its compiled workloads replace the built-in suite")
	resources := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if specFlags.Name != "" && *traceFile != "" {
		return cli.Exit("chirpsim", cli.Usagef("-workload-spec and -trace are mutually exclusive"))
	}
	compiled, err := specFlags.Compile()
	if err != nil {
		return cli.Exit("chirpsim", err)
	}
	// resolve picks the run subject: a named workload, resolved against
	// the compiled spec when one is loaded and the built-in suite
	// otherwise, or the spec's combined population when -workload is
	// omitted.
	resolve := func() (*workloads.Workload, error) {
		if *workload == "" {
			if compiled != nil {
				return compiled.Combined(), nil
			}
			return nil, nil
		}
		w := workloads.ByName(*workload)
		if compiled != nil {
			w = compiled.ByName(*workload)
		}
		if w == nil {
			return nil, cli.Usagef("unknown workload %q (try -list)", *workload)
		}
		return w, nil
	}

	if *describe {
		w, err := resolve()
		if err == nil && w == nil {
			err = cli.Usagef("-describe requires -workload (or a -workload-spec with clients)")
		}
		if err != nil {
			return cli.Exit("chirpsim", err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(w.Describe()); err != nil {
			return cli.Exit("chirpsim", err)
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

	names := strings.Split(*policies, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}
	factories, err := sim.Factories(names)
	if err != nil {
		return cli.Exit("chirpsim", cli.Usagef("%v", err))
	}
	w, err := resolve()
	if err != nil {
		return cli.Exit("chirpsim", err)
	}
	subject := *traceFile
	specHash := ""
	switch {
	case w != nil:
		subject = w.Name
		specHash = w.SpecHash
	case *traceFile != "":
	default:
		return cli.Exit("chirpsim", cli.Usagef("one of -workload, -workload-spec or -trace is required (see -list)"))
	}
	openSource := func() (trace.Source, error) {
		if w != nil {
			return trace.NewLimit(w.Source(), *instr), nil
		}
		file, err := trace.OpenFile(*traceFile)
		if err != nil {
			return nil, err
		}
		return trace.NewLimit(file, *instr), nil
	}

	meta := fmt.Sprintf("chirpsim workload=%s trace=%s spec=%s instr=%d timing=%v penalty=%d",
		subject, *traceFile, specHash, *instr, *timing, *penalty)
	rt, err := resources.Open("chirpsim", meta)
	if err != nil {
		return cli.Exit("chirpsim", err)
	}
	defer rt.Close()

	// One engine job runs every policy. The timing pipeline drives all
	// L2 TLBs from one front-end pass (pipeline.NewMulti); TLB-only runs
	// go through sim.RunMulti with the process cache, which captures (or
	// loads) the stream and replays every policy's TLB in one pass, or —
	// with a nil cache — runs the direct reference per policy. Rows stay
	// in -policies order, so the first policy remains the comparison
	// baseline.
	fused := func(ctx context.Context) ([]policyRow, error) {
		if !*timing {
			pf := make([]sim.PolicyFactory, len(factories))
			for i, f := range factories {
				pf[i] = f.New
			}
			rs, err := sim.RunMulti(ctx, sim.RunSpec{
				Name:     subject,
				SpecHash: specHash,
				Open:     openSource,
				Config:   sim.DefaultTLBOnlyConfig(*instr),
				Cache:    rt.Streams,
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
	jobs := []engine.Job[[]policyRow]{{
		Key: engine.Key{Workload: subject, Policy: strings.Join(names, "+")},
		Run: fused,
	}}
	grouped, err := engine.Run(rt.Ctx, jobs, engine.Config{Workers: rt.Workers, Sink: rt.Sink, Checkpoint: rt.Checkpoint})
	if err != nil {
		return cli.Exit("chirpsim", err)
	}
	results := grouped[0]

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
