package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
)

// ReplayMulti is the replay path: it drives N policies (one is fine)
// over a captured stream's derived views. The dense access sequence
// (PC and VPN arrays, shared by every L2 geometry) is
// materialized once per stream, its precomputed stride-prefetch fill
// schedule once per call that prefetches, and every policy walks them
// independently; CHiRP and GHRP additionally consume their precomputed
// signature sequence (tlb.SignatureFed), so no policy maintains history
// registers at replay time. Every view the call needs is fetched
// before the fan-out, and the ones that decode the stream and are
// neither memoized nor persisted build together in one decode pass.
// Policies are partitioned across min(N, GOMAXPROCS) goroutines
// sharing the read-only views. Results are bit-identical to calling
// RunTLBOnly once per policy over the captured trace, in the same
// order as policies.
//
// The equivalence argument: the L1 TLBs are policy-invariant, so the
// L2 access sequence RunTLBOnly produces is exactly the captured one,
// and policy state lives entirely inside each policy's own TLB. Each
// policy therefore sees RunTLBOnly's callback sequence — Lookup,
// Insert, prefetch fills, warmup latch, in access order. What
// RunTLBOnly derives per access (set indices, stride-prefetch
// decisions, CHiRP/GHRP signatures) is a pure function of the stream,
// computed once by the derived views through the same code the live
// policies run; branches matter only through those signatures. A
// policy that observes branches but is neither *core.CHiRP nor
// *policy.GHRP has no signature feed, so ReplayMulti rejects it with
// an error naming it; RunMulti routes such policies to RunTLBOnly.
func ReplayMulti(stream *l2stream.Stream, policies []tlb.Policy, cfg TLBOnlyConfig) ([]TLBOnlyResult, error) {
	return replayMulti(stream, policies, cfg, runtime.GOMAXPROCS(0))
}

// replayMulti is ReplayMulti with an explicit worker count, so tests
// can force the parallel schedule on any host.
func replayMulti(stream *l2stream.Stream, policies []tlb.Policy, cfg TLBOnlyConfig, workers int) ([]TLBOnlyResult, error) {
	if len(policies) == 0 {
		return nil, errors.New("sim: ReplayMulti needs at least one policy")
	}
	if got, want := stream.Config(), CaptureConfig(cfg); got != want {
		return nil, fmt.Errorf("sim: stream captured under %+v cannot replay %+v", got, want)
	}
	for _, p := range policies {
		if needsBranchEvents(p) {
			return nil, fmt.Errorf("sim: policy %s (%T) observes branches but has no signature feed; a captured stream cannot replay it, run it with RunTLBOnly", p.Name(), p)
		}
	}
	if !stream.Warmed() {
		return nil, fmt.Errorf("sim: trace ended before warmup boundary (%d < %d instructions)", stream.Instructions(), stream.WarmupAt())
	}
	views, err := viewsFor(stream, policies, cfg)
	if err != nil {
		return nil, err
	}

	out := make([]TLBOnlyResult, len(policies))
	errs := make([]error, len(policies))
	runPolicies(workers, len(policies), func(j int) {
		out[j], errs[j] = replayOne(stream, views, j, policies[j], cfg)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runPolicies executes job(0..n-1), fanning across workers goroutines
// when more than one is requested. Jobs touch disjoint state, so the
// only synchronization is the shared work counter and the final join.
// A panicking worker stops pulling jobs; its panic value is re-raised
// on the caller's goroutine after the join, preserving the caller's
// recover semantics (suite.go's recovered).
func runPolicies(workers, n int, job func(j int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for j := 0; j < n; j++ {
			job(j)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				j := int(next.Add(1))
				if j >= n {
					return
				}
				job(j)
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// needsBranchEvents reports whether p observes branches without a
// precomputed signature feed: only RunTLBOnly, which walks the trace's
// branches, can drive it.
func needsBranchEvents(p tlb.Policy) bool {
	switch p.(type) {
	case *core.CHiRP, *policy.GHRP:
		return false
	}
	_, observes := p.(tlb.BranchObserver)
	return observes
}

// replayOne replays policies[j] of a ReplayMulti call over the shared
// derived views, which viewsFor fetched before the fan-out. The only
// thing that differs between policies is the walker's signature feed:
// CHiRP and GHRP run in external-signature mode against their
// precomputed sequences, and everything else (replayMulti has already
// rejected unfed branch observers) walks the dense access view bare.
func replayOne(stream *l2stream.Stream, views *replayViews, j int, p tlb.Policy, cfg TLBOnlyConfig) (TLBOnlyResult, error) {
	var (
		w   denseWalker
		fed tlb.SignatureFed
	)
	switch pp := p.(type) {
	case *core.CHiRP:
		w.chirp, fed = pp, pp
		w.chirpSigs = views.chirpSigs[j]
	case *policy.GHRP:
		w.ghrp, fed = pp, pp
		w.ghrpSigs = views.ghrpSigs
	}
	t, err := tlb.New(cfg.Hierarchy.L2, p)
	if err != nil {
		return TLBOnlyResult{}, err
	}
	if fed != nil {
		fed.BeginExternalSignatures()
	}
	w.t = t
	w.walk(views.rv)
	return finishReplay(stream, p, t, w.warm), nil
}

// finishReplay closes out one policy's replayed TLB off the hot path:
// accounting flush, metric publication, and the result, assembled from
// the finished TLB, the stats latched at the warmup marker, and the
// policy-invariant scalars the capture recorded — field for field what
// RunTLBOnly reports.
//
//chirp:releases tlbarrays
func finishReplay(stream *l2stream.Stream, p tlb.Policy, t *tlb.TLB, warm tlb.Stats) TLBOnlyResult {
	t.FlushAccounting()
	publishRun(p, t)
	st := t.Stats()
	res := TLBOnlyResult{
		Policy:        p.Name(),
		Instructions:  stream.Instructions() - stream.WarmupInstructions(),
		L2Accesses:    st.Accesses,
		L2Misses:      st.Misses - warm.Misses,
		L2TotalMisses: st.Misses,
		Efficiency:    st.Efficiency(),
		L1IMisses:     stream.L1IMisses(),
		L1DMisses:     stream.L1DMisses(),
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.L2Misses) / (float64(res.Instructions) / 1000)
	}
	if ta, ok := p.(tlb.TableAccounting); ok {
		res.TableReads, res.TableWrites = ta.TableAccesses()
		if st.Accesses > 0 {
			res.TableAccessRate = float64(res.TableReads+res.TableWrites) / float64(st.Accesses)
		}
	}
	t.Release()
	return res
}

// denseWalker drives one policy's TLB over the dense replay view. The
// Access structs live in the struct: they escape into the policy
// interface calls, so loop-locals would heap-allocate per access.
//
// The walker carries at most one signature feed: CHiRP's packed
// demand/prefetch pairs or GHRP's per-access signatures, each with its
// concrete policy so the SetSignatures call stays devirtualized. A
// policy with neither walks the view bare.
//
// walk updates a and pa with field writes rather than struct literals,
// skipping the per-access zeroing stores. That relies on two
// invariants: ASID stays at its zero value for the walk's lifetime
// (replay views are single-address-space), and the fields walk does
// not write are either never read stale (a.Set is overwritten by
// Lookup, pa.Set and pa.Prefetch by InsertPrefetch, before use) or
// never written by the TLB at all (a.Prefetch on the demand path).
type denseWalker struct {
	t     *tlb.TLB
	warm  tlb.Stats
	a, pa tlb.Access

	chirp     *core.CHiRP
	chirpSigs []uint32 // demand signature in the low half, prefetch in the high
	ghrp      *policy.GHRP
	ghrpSigs  []uint64
}

// walk replays the dense view: the signature feed (if any), the demand
// walk, and Contains-gated prefetch fills, with the warm stats latched
// where the warmup marker sat.
//
//chirp:hotpath
func (w *denseWalker) walk(v *replayView) {
	t := w.t
	pcs := v.pc
	// The reslices pin every column to len(pcs) so the loop indexes
	// without per-column bounds checks.
	vpns := v.vpn[:len(pcs)]
	pfOff, pfVPN := v.pfOff, v.pfVPN
	chirp, chirpSigs := w.chirp, w.chirpSigs
	ghrp, ghrpSigs := w.ghrp, w.ghrpSigs
	for i := range pcs {
		if i == v.warmIdx {
			w.warm = t.Stats()
		}
		if chirp != nil {
			s := chirpSigs[i]
			chirp.SetSignatures(uint64(s&0xffff), uint64(s>>16))
		} else if ghrp != nil {
			ghrp.SetSignatures(ghrpSigs[i], 0)
		}
		vpn := vpns[i]
		w.a.PC = pcs[i]
		w.a.VPN = vpn
		if _, hit := t.Lookup(&w.a); !hit {
			t.Insert(&w.a, vpn)
		}
		if pfOff != nil {
			for k := pfOff[i]; k < pfOff[i+1]; k++ {
				pv := pfVPN[k]
				if t.Contains(pv) {
					continue
				}
				w.pa.PC = pcs[i]
				w.pa.VPN = pv
				t.InsertPrefetch(&w.pa, pv)
			}
		}
	}
	if v.warmIdx == len(pcs) {
		w.warm = t.Stats()
	}
}

// RunMulti measures one workload under every policy in factories,
// sharing a single trace traversal when spec.Cache enables the
// capture/replay path: capture (or load) the stream once, then one
// ReplayMulti pass over the policies the call's replay-result memo
// does not already hold. Each fresh policy is keyed by its type and
// constructed state (policyKey) before it is attached; a policy whose
// key, under the same full TLBOnlyConfig, was walked earlier in the
// call takes that result, and a policy without a key is always walked
// (memo.go). The stream and the memo live for the one call; a
// RunPasses job holds one of each across every pass of a workload.
// Without a cache, when any policy observes branches without a
// signature feed (which a captured stream cannot drive), or when the
// capture is over the cache's byte cap, it runs RunTLBOnly once per
// policy over a fresh source instead — the reference the replay path
// reproduces bit for bit — and the memo plays no part. spec.Policy is ignored;
// factories drives the fan-out. Results are ordered like factories.
func RunMulti(ctx context.Context, spec RunSpec, factories []PolicyFactory) ([]TLBOnlyResult, error) {
	if len(factories) == 0 {
		return nil, errors.New("sim: RunMulti needs at least one policy")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ps := make([]tlb.Policy, len(factories))
	for i, f := range factories {
		ps[i] = f()
	}
	var stream *l2stream.Stream
	if replayable(ps) {
		var err error
		if stream, err = spec.stream(spec.open); err != nil {
			return nil, err
		}
		if stream != nil {
			defer stream.Close()
		}
	}
	return measure(ctx, spec, stream, map[string]TLBOnlyResult{}, ps)
}

// replayable reports whether a captured stream can drive every policy
// in ps: none observes branches without a signature feed.
func replayable(ps []tlb.Policy) bool { return !slices.ContainsFunc(ps, needsBranchEvents) }

// measure runs the fresh policies ps over spec's workload: a replay of
// stream through memo, the results already walked from it, when there
// is a stream and it can drive them all, and otherwise RunTLBOnly once
// per policy over a fresh source. Results are ordered like ps.
func measure(ctx context.Context, spec RunSpec, stream *l2stream.Stream, memo map[string]TLBOnlyResult, ps []tlb.Policy) ([]TLBOnlyResult, error) {
	if stream != nil && replayable(ps) {
		return replayMemoized(memo, stream, ps, spec.Config)
	}
	out := make([]TLBOnlyResult, len(ps))
	for i, p := range ps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		src, err := spec.open()
		if err != nil {
			return nil, err
		}
		out[i], err = RunTLBOnly(src, p, spec.Config)
		closeSource(src)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
