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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/chirplab/chirp/internal/cli"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
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
	if *instr == 0 {
		return cli.Exit("chirpsim", cli.Usagef("-instr must be positive: a zero budget simulates nothing"))
	}

	if specFlags.Name != "" && *traceFile != "" {
		return cli.Exit("chirpsim", cli.Usagef("-workload-spec and -trace are mutually exclusive"))
	}
	if *workload != "" && *traceFile != "" {
		return cli.Exit("chirpsim", cli.Usagef("-workload and -trace are mutually exclusive"))
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
	if *traceFile != "" {
		if w, err = workloads.TraceFile(*traceFile); err != nil {
			return cli.Exit("chirpsim", err)
		}
	}
	if w == nil {
		return cli.Exit("chirpsim", cli.Usagef("one of -workload, -workload-spec or -trace is required (see -list)"))
	}

	meta := fmt.Sprintf("chirpsim workload=%s trace=%s spec=%s instr=%d timing=%v penalty=%d",
		w.Name, *traceFile, w.SpecHash, *instr, *timing, *penalty)
	rt, err := resources.Open("chirpsim", meta)
	if err != nil {
		return cli.Exit("chirpsim", err)
	}
	defer rt.Close()

	// One suite job runs every policy over the one workload: it
	// captures (or loads) the stream once and replays every policy, or
	// — with a nil cache — runs the direct reference per policy. A
	// timing run adds one policy-free front-end pass, which the capture
	// reads the trace through, and derives each policy's timing from it
	// and the policy's L2 misses at -penalty. Rows stay in -policies
	// order, so the first policy remains the comparison baseline.
	ws := []*workloads.Workload{w}
	opts := sim.SuiteOptions{Workers: rt.Workers, Sink: rt.Sink, Checkpoint: rt.Checkpoint, Scope: "chirpsim", StreamCache: rt.Streams}
	header := []string{"policy", "MPKI", "vs first", "efficiency", "table rate"}
	var rows [][]string
	if *timing {
		header = []string{"policy", "MPKI", "vs first", "IPC", "speedup", "branch acc"}
		rs, err := sim.RunSuiteTimingCtx(rt.Ctx, ws, factories, sim.DefaultTLBOnlyConfig(*instr), *penalty, opts)
		if err != nil {
			return cli.Exit("chirpsim", err)
		}
		base := rs[0]
		for _, res := range rs {
			rows = append(rows, []string{
				res.Policy,
				fmt.Sprintf("%.4f", res.MPKI),
				fmt.Sprintf("%+.2f%%", stats.Reduction(base.MPKI, res.MPKI)),
				fmt.Sprintf("%.4f", res.IPC),
				fmt.Sprintf("%+.2f%%", (res.IPC/base.IPC-1)*100),
				fmt.Sprintf("%.3f", res.BranchAccuracy),
			})
		}
	} else {
		rs, err := sim.RunSuiteTLBOnlyCtx(rt.Ctx, ws, factories, sim.DefaultTLBOnlyConfig(*instr), opts)
		if err != nil {
			return cli.Exit("chirpsim", err)
		}
		base := rs[0]
		for _, res := range rs {
			rows = append(rows, []string{
				res.Policy,
				fmt.Sprintf("%.4f", res.MPKI),
				fmt.Sprintf("%+.2f%%", stats.Reduction(base.MPKI, res.MPKI)),
				fmt.Sprintf("%.3f", res.Efficiency),
				fmt.Sprintf("%.3f", res.TableAccessRate),
			})
		}
	}
	if err := stats.Table(os.Stdout, header, rows); err != nil {
		fmt.Fprintf(os.Stderr, "chirpsim: %v\n", err)
		return 1
	}
	return 0
}
