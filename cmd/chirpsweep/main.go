// Command chirpsweep runs free-form parameter sweeps beyond the
// paper's figures: CHiRP configuration knobs, TLB geometry, and
// update-filter ablations, measured as average MPKI reduction versus
// LRU over a suite prefix.
//
//	chirpsweep -sweep table    # prediction-table size (like Fig. 9)
//	chirpsweep -sweep history  # path-history length
//	chirpsweep -sweep branchhist
//	chirpsweep -sweep threshold
//	chirpsweep -sweep ways     # L2 TLB associativity
//	chirpsweep -sweep entries  # L2 TLB capacity
//	chirpsweep -sweep filters  # selective-hit-update / first-hit ablation
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/chirplab/chirp/internal/cli"
	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/tlb"
)

func main() { os.Exit(run(flag.CommandLine, os.Args[1:])) }

func run(fs *flag.FlagSet, args []string) int {
	sweep := fs.String("sweep", "table", "table | history | branchhist | threshold | ways | entries | filters")
	n := fs.Int("n", 96, "suite prefix size (0 = full suite)")
	instr := fs.Uint64("instr", 1_000_000, "instructions per trace")
	specFlags := cli.RegisterSpec(fs, "workload spec (registry name or JSON file) replacing the built-in suite; -n still selects a prefix of its compiled workloads")
	resources := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *instr == 0 {
		return cli.Exit("chirpsweep", cli.Usagef("-instr must be positive: a zero budget simulates nothing"))
	}
	if *n < 0 {
		return cli.Exit("chirpsweep", cli.Usagef("-n must not be negative (0 = full suite)"))
	}

	compiled, err := specFlags.Compile()
	if err != nil {
		return cli.Exit("chirpsweep", err)
	}
	ws := cli.Suite(compiled, *n)
	specLabel := ""
	if compiled != nil {
		specLabel = compiled.Hash
	}

	meta := fmt.Sprintf("chirpsweep sweep=%s n=%d instr=%d spec=%s", *sweep, *n, *instr, specLabel)
	rt, err := resources.Open("chirpsweep", meta)
	if err != nil {
		return cli.Exit("chirpsweep", err)
	}
	defer rt.Close()
	// A policy sweep adds one CHiRP variant per row to pols, all run in
	// one suite pass beside LRU; a geometry sweep adds one L2 TLB per
	// row to geoms, each run as its own LRU + CHiRP pass.
	lru, _ := sim.Factories([]string{"lru"}) // always registered
	pols := []sim.NamedFactory{lru[0]}
	var labels []string
	var geoms []tlb.Config
	knob := func(label string, mut func(*core.Config)) {
		c := core.DefaultConfig()
		mut(&c)
		labels = append(labels, label)
		pols = append(pols, sim.NamedFactory{Name: label, New: sim.CHiRPFactory(c)})
	}
	geom := func(label string, entries, ways int) {
		labels = append(labels, label)
		geoms = append(geoms, tlb.Config{Name: "L2 TLB", Entries: entries, Ways: ways, PageShift: 12})
	}
	switch *sweep {
	case "table":
		for _, entries := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768} {
			knob(fmt.Sprintf("%d counters (%dB)", entries, entries/4), func(c *core.Config) { c.TableEntries = entries })
		}
	case "history":
		for _, l := range []int{4, 8, 12, 16, 24, 32, 40} {
			knob(fmt.Sprintf("path length %d", l), func(c *core.Config) { c.History.PathLength = l })
		}
	case "branchhist":
		for _, l := range []int{2, 4, 8, 16, 32} {
			knob(fmt.Sprintf("branch length %d", l), func(c *core.Config) { c.History.BranchLength = l })
		}
	case "threshold":
		for _, tc := range []struct {
			bits uint
			th   uint8
		}{{2, 0}, {2, 1}, {2, 2}, {3, 3}, {3, 5}} {
			knob(fmt.Sprintf("%d-bit counters, threshold %d", tc.bits, tc.th), func(c *core.Config) { c.CounterBits = tc.bits; c.DeadThreshold = tc.th })
		}
	case "ways":
		for _, ways := range []int{2, 4, 8, 16} {
			geom(fmt.Sprintf("%d-way", ways), 1024, ways)
		}
	case "entries":
		for _, entries := range []int{256, 512, 1024, 2048, 4096} {
			geom(fmt.Sprintf("%d entries", entries), entries, 8)
		}
	case "filters":
		for _, fc := range []struct {
			label               string
			selective, firstHit bool
		}{
			{"both filters on (paper)", true, true},
			{"no selective hit update", false, true},
			{"no first-hit-only", true, false},
			{"both filters off", false, false},
		} {
			knob(fc.label, func(c *core.Config) {
				c.SelectiveHitUpdate = fc.selective
				c.FirstHitOnly = fc.firstHit
			})
		}
	default:
		fmt.Fprintf(os.Stderr, "chirpsweep: unknown sweep %q\n", *sweep)
		return 2
	}

	// Sweep points vary only the L2 policy and geometry, which the
	// captured stream is invariant to, so every pass runs in one
	// RunPasses call: one job per workload generates and L1-filters its
	// trace once for the whole sweep. Each pass adds one row per policy
	// after the first (LRU, the base), labelled in order.
	cfg := sim.DefaultTLBOnlyConfig(*instr)
	var passes []sim.Pass
	var rowLabels [][]string
	if geoms == nil {
		passes = append(passes, sim.Pass{Config: cfg, Policies: pols})
		rowLabels = append(rowLabels, labels)
	}
	pols = []sim.NamedFactory{lru[0], {Name: "chirp", New: sim.CHiRPFactory(core.DefaultConfig())}}
	for i, g := range geoms {
		c := cfg
		c.Hierarchy.L2 = g
		passes = append(passes, sim.Pass{Scope: labels[i], Config: c, Policies: pols})
		rowLabels = append(rowLabels, labels[i:i+1])
	}
	opts := sim.SuiteOptions{Workers: rt.Workers, Sink: rt.Sink, Checkpoint: rt.Checkpoint, StreamCache: rt.Streams}
	results, err := sim.RunPasses(rt.Ctx, ws, passes, opts)
	var rows [][]string
	for p := 0; p < len(passes) && err == nil; p++ {
		ps := passes[p].Policies
		sums := make([]float64, len(ps))
		for i, r := range results[p] {
			sums[i%len(ps)] += r.MPKI
		}
		n := float64(len(ws))
		for i, label := range rowLabels[p] {
			m := sums[i+1] / n
			rows = append(rows, []string{label, fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(sums[0]/n, m))})
		}
	}
	if err == nil {
		err = stats.Table(os.Stdout, []string{"configuration", "mean MPKI", "vs LRU"}, rows)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
		return 1
	}
	return 0
}
