package pipeline_test

import (
	"fmt"
	"testing"

	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
)

// TestL1MetricsPinned: a run publishes its L1 TLBs' counters as the
// chirp_tlb_* series, labeled by level, on the policy-free front end
// and on a one-policy machine alike. The pins were recorded from the
// policy-driven tlb.TLB L1s the machine once ran, so a change of L1
// structure must reproduce them exactly. The L1s take no prefetch
// fills, but their prefetch series exists, at zero.
func TestL1MetricsPinned(t *testing.T) {
	type counts struct{ lookups, hits, misses, inserts, evictions float64 }
	type pin struct{ itlb, dtlb counts }
	want := map[string]pin{
		"db-000":  {itlb: counts{10561, 10556, 5, 5, 0}, dtlb: counts{2928, 105, 2823, 2823, 2759}},
		"web-000": {itlb: counts{16448, 16317, 131, 131, 78}, dtlb: counts{2901, 59, 2842, 2842, 2778}},
	}
	cfg := pipeline.DefaultConfig(400_000, 150)
	for workload, w := range want {
		for _, m := range []struct {
			name string
			l2   func() tlb.Policy
		}{{"front end", func() tlb.Policy { return nil }}, {"lru", func() tlb.Policy { return policy.NewLRU() }}} {
			before := obs.Default.Snapshot()
			soloRun(t, cfg, workload, m.l2())
			after := obs.Default.Snapshot()
			delta := func(family, level string) float64 {
				k := fmt.Sprintf("chirp_tlb_%s_total{level=%q}", family, level)
				if _, ok := after[k]; !ok {
					t.Errorf("%s/%s: series %s not published", workload, m.name, k)
				}
				return after[k] - before[k]
			}
			for level, c := range map[string]counts{"L1 iTLB": w.itlb, "L1 dTLB": w.dtlb} {
				got := counts{delta("lookups", level), delta("hits", level), delta("misses", level), delta("inserts", level), delta("evictions", level)}
				if got != c {
					t.Errorf("%s/%s %s: published %+v, want %+v", workload, m.name, level, got, c)
				}
				if d := delta("prefetch_inserts", level); d != 0 {
					t.Errorf("%s/%s %s: %v prefetch inserts published", workload, m.name, level, d)
				}
			}
		}
	}
}
