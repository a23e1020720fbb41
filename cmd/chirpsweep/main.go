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
	n := fs.Int("n", 96, "suite prefix size")
	instr := fs.Uint64("instr", 1_000_000, "instructions per trace")
	specFlags := cli.RegisterSpec(fs, "workload spec (registry name or JSON file) replacing the built-in suite; -n still selects a prefix of its compiled workloads")
	resources := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
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
	// Sweep points vary only the L2 policy and geometry, which the
	// captured stream is invariant to — the one process cache serves
	// every measure() call below, so each workload's trace is generated
	// and L1-filtered once for the whole sweep.
	opts := sim.SuiteOptions{Workers: rt.Workers, Sink: rt.Sink, Checkpoint: rt.Checkpoint, StreamCache: rt.Streams}

	cfg := sim.DefaultTLBOnlyConfig(*instr)

	// measure returns the average MPKI for a policy factory, with an
	// optional TLB geometry override. Every sweep point shares the
	// policy name "x", so the scope is what keeps checkpoint keys of
	// different configurations apart.
	fail := false
	measure := func(scope string, f sim.PolicyFactory, geom *tlb.Config) float64 {
		if fail {
			return 0
		}
		c := cfg
		if geom != nil {
			c.Hierarchy.L2 = *geom
		}
		o := opts
		o.Scope = scope
		rs, err := sim.RunSuiteTLBOnlyCtx(rt.Ctx, ws, []sim.NamedFactory{{Name: "x", New: f}}, c, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
			fail = true
			return 0
		}
		sum := 0.0
		for _, r := range rs {
			sum += r.MPKI
		}
		return sum / float64(len(rs))
	}
	lruF, _ := sim.Factories([]string{"lru"})
	chirpWith := func(mut func(*core.Config)) sim.PolicyFactory {
		c := core.DefaultConfig()
		mut(&c)
		return sim.CHiRPFactory(c)
	}

	var rows [][]string
	switch *sweep {
	case "table":
		base := measure("lru", lruF[0].New, nil)
		for _, entries := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768} {
			m := measure(fmt.Sprintf("table/%d", entries), chirpWith(func(c *core.Config) { c.TableEntries = entries }), nil)
			rows = append(rows, []string{fmt.Sprintf("%d counters (%dB)", entries, entries/4),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "history":
		base := measure("lru", lruF[0].New, nil)
		for _, l := range []int{4, 8, 12, 16, 24, 32, 40} {
			m := measure(fmt.Sprintf("history/%d", l), chirpWith(func(c *core.Config) { c.History.PathLength = l }), nil)
			rows = append(rows, []string{fmt.Sprintf("path length %d", l),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "branchhist":
		base := measure("lru", lruF[0].New, nil)
		for _, l := range []int{2, 4, 8, 16, 32} {
			m := measure(fmt.Sprintf("branchhist/%d", l), chirpWith(func(c *core.Config) { c.History.BranchLength = l }), nil)
			rows = append(rows, []string{fmt.Sprintf("branch length %d", l),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "threshold":
		base := measure("lru", lruF[0].New, nil)
		for _, tc := range []struct {
			bits uint
			th   uint8
		}{{2, 0}, {2, 1}, {2, 2}, {3, 3}, {3, 5}} {
			m := measure(fmt.Sprintf("threshold/%d-%d", tc.bits, tc.th), chirpWith(func(c *core.Config) { c.CounterBits = tc.bits; c.DeadThreshold = tc.th }), nil)
			rows = append(rows, []string{fmt.Sprintf("%d-bit counters, threshold %d", tc.bits, tc.th),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "ways":
		for _, ways := range []int{2, 4, 8, 16} {
			geom := tlb.Config{Name: "L2 TLB", Entries: 1024, Ways: ways, PageShift: 12}
			base := measure(fmt.Sprintf("ways/%d/lru", ways), lruF[0].New, &geom)
			m := measure(fmt.Sprintf("ways/%d/chirp", ways), sim.CHiRPFactory(core.DefaultConfig()), &geom)
			rows = append(rows, []string{fmt.Sprintf("%d-way", ways),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "entries":
		for _, entries := range []int{256, 512, 1024, 2048, 4096} {
			geom := tlb.Config{Name: "L2 TLB", Entries: entries, Ways: 8, PageShift: 12}
			base := measure(fmt.Sprintf("entries/%d/lru", entries), lruF[0].New, &geom)
			m := measure(fmt.Sprintf("entries/%d/chirp", entries), sim.CHiRPFactory(core.DefaultConfig()), &geom)
			rows = append(rows, []string{fmt.Sprintf("%d entries", entries),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "filters":
		base := measure("lru", lruF[0].New, nil)
		for _, fc := range []struct {
			label               string
			selective, firstHit bool
		}{
			{"both filters on (paper)", true, true},
			{"no selective hit update", false, true},
			{"no first-hit-only", true, false},
			{"both filters off", false, false},
		} {
			m := measure(fmt.Sprintf("filters/%v-%v", fc.selective, fc.firstHit), chirpWith(func(c *core.Config) {
				c.SelectiveHitUpdate = fc.selective
				c.FirstHitOnly = fc.firstHit
			}), nil)
			rows = append(rows, []string{fc.label,
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	default:
		fmt.Fprintf(os.Stderr, "chirpsweep: unknown sweep %q\n", *sweep)
		return 2
	}
	if fail {
		return 1
	}
	if err := stats.Table(os.Stdout, []string{"configuration", "mean MPKI", "vs LRU"}, rows); err != nil {
		fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
		return 1
	}
	return 0
}
