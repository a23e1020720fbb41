package tlb

import "github.com/chirplab/chirp/internal/obs"

// Per-level TLB metric families in the default registry, labeled by
// the TLB's configured name ("L1 iTLB", "L1 dTLB", "L2 TLB", or
// whatever a custom geometry carries). Nothing here runs on the
// lookup/insert hot path: the TLB aggregates into its plain Stats
// struct as always, and PublishMetrics flushes deltas at run
// boundaries.
var (
	obsLookups = obs.Default.CounterVec("chirp_tlb_lookups_total",
		"Demand lookups per TLB level.", "level")
	obsHits = obs.Default.CounterVec("chirp_tlb_hits_total",
		"Demand lookup hits per TLB level.", "level")
	obsMisses = obs.Default.CounterVec("chirp_tlb_misses_total",
		"Demand lookup misses per TLB level.", "level")
	obsInserts = obs.Default.CounterVec("chirp_tlb_inserts_total",
		"Fills (demand and prefetch) per TLB level.", "level")
	obsPrefetchInserts = obs.Default.CounterVec("chirp_tlb_prefetch_inserts_total",
		"Prefetch fills per TLB level.", "level")
	obsEvictions = obs.Default.CounterVec("chirp_tlb_evictions_total",
		"Valid-entry evictions per TLB level.", "level")
)

// PublishMetrics implements obs.Publisher: it adds the TLB's counter
// movement since the previous publish to the per-level families in
// obs.Default. Simulation drivers call it once per finished run;
// calling it again publishes only what accrued in between, so partial
// publishes never double count.
func (t *TLB) PublishMetrics() {
	PublishStats(t.cfg.Name, t.stats, t.published)
	t.published = t.stats
}

// PublishStats adds the counter movement from last to st to the
// per-level families under level. It serves TLB structures kept
// outside this package, such as the timing pipeline's L1s.
func PublishStats(level string, st, last Stats) {
	obsLookups.With(level).Add(st.Accesses - last.Accesses)
	obsHits.With(level).Add(st.Hits - last.Hits)
	obsMisses.With(level).Add(st.Misses - last.Misses)
	obsInserts.With(level).Add(st.Inserts - last.Inserts)
	obsPrefetchInserts.With(level).Add(st.PrefetchInserts - last.PrefetchInserts)
	obsEvictions.With(level).Add(st.Evictions - last.Evictions)
}
