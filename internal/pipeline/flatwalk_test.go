package pipeline_test

import (
	"testing"

	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/sim"
)

// flatWalkWorkloads is one workload per suite category
// (workloads.Categories).
var flatWalkWorkloads = []string{"spec-000", "db-003", "crypto-000", "sci-000", "web-000", "bigdata-000", "ml-000", "osmix-000"}

const flatWalkInstr = 400_000

// soloRuns runs one machine per registered policy and returns their
// results in sim.PolicyNames order.
func soloRuns(t *testing.T, workload string, penalty uint64) []pipeline.Result {
	t.Helper()
	pols, err := sim.Factories(sim.PolicyNames())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]pipeline.Result, len(pols))
	for i, p := range pols {
		out[i] = soloRun(t, pipeline.DefaultConfig(flatWalkInstr, penalty), workload, p.New())
	}
	return out
}

// TestTimingMissesMatchTLBOnly: under the flat walk penalty the L2 TLB
// sees the same access stream as in a TLB-only run, so every policy's
// post-warmup L2 misses in the timing pipeline equal RunTLBOnly's. This
// is what lets a timing row take its miss count from the MPKI figures'
// replay.
func TestTimingMissesMatchTLBOnly(t *testing.T) {
	names := sim.PolicyNames()
	for _, workload := range flatWalkWorkloads {
		t.Run(workload, func(t *testing.T) {
			rs := soloRuns(t, workload, 150)
			for i, name := range names {
				p, err := sim.NewPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sim.RunTLBOnly(source(t, workload, flatWalkInstr), p, sim.DefaultTLBOnlyConfig(flatWalkInstr))
				if err != nil {
					t.Fatal(err)
				}
				if rs[i].L2TLBMisses != ref.L2Misses {
					t.Errorf("%s: timing L2 misses %d, TLB-only %d", name, rs[i].L2TLBMisses, ref.L2Misses)
				}
			}
		})
	}
}

// TestTimingCyclesLinearInPenalty: the flat penalty adds latency and
// nothing else, so two runs that differ only in penalty differ in
// post-warmup cycles by exactly misses × the penalty difference.
func TestTimingCyclesLinearInPenalty(t *testing.T) {
	const lo, hi = 20, 150
	names := sim.PolicyNames()
	for _, workload := range flatWalkWorkloads {
		t.Run(workload, func(t *testing.T) {
			low, high := soloRuns(t, workload, lo), soloRuns(t, workload, hi)
			for i, name := range names {
				if low[i].L2TLBMisses != high[i].L2TLBMisses {
					t.Errorf("%s: L2 misses moved with the penalty: %d at %d, %d at %d", name, low[i].L2TLBMisses, lo, high[i].L2TLBMisses, hi)
					continue
				}
				if got, want := high[i].Cycles-low[i].Cycles, high[i].L2TLBMisses*(hi-lo); got != want {
					t.Errorf("%s: Cycles(%d) - Cycles(%d) = %d, want misses %d × %d = %d", name, hi, lo, got, high[i].L2TLBMisses, hi-lo, want)
				}
			}
		})
	}
}
