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
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/chirplab/chirp/internal/cli"
	"github.com/chirplab/chirp/internal/experiments"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/workloads"
)

// runner is one experiment chirpexp can print. A nil run marks a
// planned experiment (the TLB-only ones and the timing figures): its
// declaration is experiments.Plans[name].
type runner struct {
	name string
	desc string
	run  func(experiments.Options) error
}

// report adapts an experiment that returns a printable result into a
// runner that writes it to out.
func report[R experiments.Result](out io.Writer, exp func(experiments.Options) (R, error)) func(experiments.Options) error {
	return func(o experiments.Options) error {
		r, err := exp(o)
		if err != nil {
			return err
		}
		return r.Write(out)
	}
}

func main() { os.Exit(run(flag.CommandLine, os.Args[1:])) }

func run(fs *flag.FlagSet, args []string) int {
	exp := fs.String("exp", "fig7", "experiment id (or comma list, or 'all')")
	n := fs.Int("n", 0, "suite prefix size (0 = full 870-workload suite)")
	instr := fs.Uint64("instr", 2_000_000, "instructions per trace")
	penalty := fs.Uint64("penalty", 150, "L2 TLB miss penalty in cycles for timing experiments")
	specFlags := cli.RegisterSpec(fs, "workload spec (registry name or JSON file) replacing the built-in suite; -n still selects a prefix of its compiled workloads")
	resources := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *instr == 0 {
		return cli.Exit("chirpexp", cli.Usagef("-instr must be positive: a zero budget simulates nothing"))
	}
	if *n < 0 {
		return cli.Exit("chirpexp", cli.Usagef("-n must not be negative (0 = full suite)"))
	}

	out := os.Stdout
	runners := []runner{
		{"fig1", "TLB efficiency heat map (§VI-D)", nil},
		{"fig2", "speedup vs PC history length (§III)", nil},
		{"fig3", "ADALINE PC-bit salience (§III-A)", report(out, experiments.Fig3)},
		{"fig6", "feature/optimisation ablation (§III)", nil},
		{"fig7", "MPKI S-curve and averages (§VI-A)", nil},
		{"fig8", "speedup at the headline walk penalty (§VI-C)", nil},
		{"fig9", "prediction-table size sweep (§VI-F)", nil},
		{"fig10", "speedup vs walk penalty (§VI-C)", nil},
		{"fig11", "prediction-table access-rate density (§VI-B)", nil},
		{"table1", "CHiRP storage budget", report(out, experiments.Table1)},
		{"table2", "simulation parameters", func(o experiments.Options) error {
			return experiments.Table2(o, out)
		}},
		{"opt", "Bélády OPT upper bound (extension X1)", nil},
		{"walker", "radix page-walker vs fixed penalty (extension X2)", report(out, experiments.Walker)},
		{"baselines", "extended baseline comparison (extension X3)", nil},
		{"mixed", "mixed 4KB/2MB page sizes (extension X4)", report(out, experiments.Mixed)},
		{"consolidated", "ASID-tagged consolidation (extension X5)", report(out, experiments.Consolidated)},
		{"prefetch", "sequential prefetch × replacement (extension X6)", nil},
		{"categories", "per-category MPKI breakdown", nil},
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
			return cli.Exit("chirpexp", cli.Usagef("unknown experiment %q", name))
		}
	}

	compiled, err := specFlags.Compile()
	if err != nil {
		return cli.Exit("chirpexp", err)
	}
	var suite []*workloads.Workload
	specLabel := ""
	if compiled != nil {
		suite = compiled.Workloads()
		specLabel = compiled.Hash
	}

	// The experiment list is deliberately excluded from the run's
	// fingerprint: scopes already namespace per-experiment keys, so one
	// checkpoint file covers any subset of `-exp all`.
	meta := fmt.Sprintf("chirpexp n=%d instr=%d penalty=%d spec=%s", *n, *instr, *penalty, specLabel)
	rt, err := resources.Open("chirpexp", meta)
	if err != nil {
		return cli.Exit("chirpexp", err)
	}
	defer rt.Close()

	// With the stream cache, the merged plan below captures each
	// workload's L2 event stream once for every planned experiment.
	o := experiments.Options{
		Workloads:    *n,
		Suite:        suite,
		Instructions: *instr,
		WalkPenalty:  *penalty,
		Workers:      rt.Workers,
		Ctx:          rt.Ctx,
		Sink:         rt.Sink,
		Checkpoint:   rt.Checkpoint,
		StreamCache:  rt.Streams,
	}

	// The planned experiments -exp names merge into one plan, which
	// runs when the first of them is due: one engine job per workload
	// serves all their passes from one capture, then drops it. Each
	// then reduces and prints its rows in its turn; a failed merged run
	// is reported under all their ids. The merged run's wall-clock
	// footer names them all, and each experiment's own footer times
	// its reduction and printing only.
	var (
		plans   []experiments.Plan
		planIDs []string // runner names, in plans order
		rows    [][][]sim.SuiteResult
	)
	for _, r := range runners {
		if want[r.name] && r.run == nil {
			planIDs = append(planIDs, r.name)
			plans = append(plans, experiments.Plans[r.name](o))
		}
	}
	for _, r := range runners {
		if !want[r.name] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(out, "== %s: %s ==\n", r.name, r.desc)
		id, exp := r.name, r.run
		if exp == nil {
			exp = func(o experiments.Options) (err error) {
				if rows == nil {
					id = strings.Join(planIDs, ",")
					if rows, err = experiments.RunPlans(o, plans); err != nil {
						return err
					}
					fmt.Fprintf(os.Stderr, "-- %s plan done in %v --\n", id, time.Since(start).Round(time.Millisecond))
					id, start = r.name, time.Now()
				}
				i := slices.Index(planIDs, r.name)
				return plans[i].Reduce(rows[i]).Write(out)
			}
		}
		if err := exp(o); err != nil {
			fmt.Fprintf(os.Stderr, "chirpexp: %s: %v\n", id, err)
			return 1
		}
		// The wall-clock footer goes to stderr, so stdout is the same
		// on every run.
		fmt.Fprintf(os.Stderr, "-- %s done in %v --\n", r.name, time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(out)
	}
	return 0
}
