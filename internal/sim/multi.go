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
// over a captured stream's derived views in one block pass. The pass
// reads the dense access sequence (PC and VPN arrays, shared by every
// L2 geometry) and the CHiRP and GHRP signature sequences the
// policies consume (tlb.SignatureFed), so no policy maintains history
// registers at replay time, one block of accesses at a time: from
// their sidecars, or from one decode pass that builds every family
// without one. Each block's stride-prefetch fill schedule is built
// once. Every policy walks each block in turn, its TLB kept from block
// to block, across min(N, GOMAXPROCS) goroutines sharing the
// read-only block. Results are bit-identical to calling RunTLBOnly
// once per policy over the captured trace, in the same order as
// policies.
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
//
// A sidecar that fails its checksum after the policies have walked
// part of it cannot be walked again with the same policies:
// ReplayMulti then returns an error, and the next call builds that
// view from the stream. RunMulti and RunPasses, which can build their
// policies afresh, walk again instead.
func ReplayMulti(stream *l2stream.Stream, policies []tlb.Policy, cfg TLBOnlyConfig) ([]TLBOnlyResult, error) {
	return replayMulti(stream, policies, cfg, runtime.GOMAXPROCS(0))
}

// replayMulti is ReplayMulti with an explicit worker count, so tests
// can force the parallel schedule on any host.
func replayMulti(stream *l2stream.Stream, policies []tlb.Policy, cfg TLBOnlyConfig, workers int) ([]TLBOnlyResult, error) {
	if len(policies) == 0 {
		return nil, errors.New("sim: ReplayMulti needs at least one policy")
	}
	return walkCells(stream, cellsOf(cfg, policies, nil), workers)
}

// cell is one (configuration, policy) a block pass walks. fresh, when
// set, builds the policy again in its initial state, so the cell can
// be walked again after a sidecar failed in mid-walk.
type cell struct {
	cfg   TLBOnlyConfig
	p     tlb.Policy
	fresh func() tlb.Policy
}

// cellsOf pairs cfg with each policy of ps and, when factories is not
// nil, with the factory that built it.
func cellsOf(cfg TLBOnlyConfig, ps []tlb.Policy, factories []PolicyFactory) []cell {
	cells := make([]cell, len(ps))
	for i, p := range ps {
		cells[i] = cell{cfg: cfg, p: p}
		if factories != nil {
			cells[i].fresh = factories[i]
		}
	}
	return cells
}

// walkCells replays every cell over stream in one block pass (see
// ReplayMulti); the cells' configurations may differ in anything but
// their capture configuration. When a sidecar fails in mid-walk and
// every cell can build its policy afresh, it walks once more with
// fresh policies, and the failed family is built from the stream.
// Results are ordered like cells. walkCells takes the cells' policies:
// it clears each cell's policy as a walker takes it, so that a policy,
// attached and holding its metadata once walked, is garbage as soon as
// its walker is done.
func walkCells(stream *l2stream.Stream, cells []cell, workers int) ([]TLBOnlyResult, error) {
	for _, c := range cells {
		if got, want := stream.Config(), CaptureConfig(c.cfg); got != want {
			return nil, fmt.Errorf("sim: stream captured under %+v cannot replay %+v", got, want)
		}
		if needsBranchEvents(c.p) {
			return nil, fmt.Errorf("sim: policy %s (%T) observes branches but has no signature feed; a captured stream cannot replay it, run it with RunTLBOnly", c.p.Name(), c.p)
		}
	}
	if !stream.Warmed() {
		return nil, fmt.Errorf("sim: trace ended before warmup boundary (%d < %d instructions)", stream.Instructions(), stream.WarmupAt())
	}
	out, err := walkOnce(stream, cells, workers)
	if !errors.Is(err, errViewCorrupt) || slices.ContainsFunc(cells, func(c cell) bool { return c.fresh == nil }) {
		return out, err
	}
	for i := range cells {
		cells[i].p = cells[i].fresh()
	}
	return walkOnce(stream, cells, workers)
}

// walkOnce is one block pass of walkCells: it lays out the view
// families and prefetch distances the cells read, then lets every
// walker walk each block in turn.
func walkOnce(stream *l2stream.Stream, cells []cell, workers int) ([]TLBOnlyResult, error) {
	ws := make([]walker, len(cells))
	var (
		fams  []*decodedView // beyond the access view, which is family 0
		dists []int
		ghrp  bool // a GHRP cell needs GHRP's family, which goes last
	)
	family := map[string]int{}
	for j, c := range cells {
		w := &ws[j]
		w.cfg, w.p, w.pf = c.cfg, c.p, -1
		cells[j].p = nil // the walker owns it now
		switch pp := c.p.(type) {
		case *core.CHiRP:
			key := chirpSigsKey(pp.Config())
			if family[key] == 0 {
				fams = append(fams, chirpSigsDecl(pp.Config(), key))
				family[key] = len(fams)
			}
			w.fam = family[key]
		case *policy.GHRP:
			ghrp = true
		}
		if pd := c.cfg.PrefetchDistance; pd > 0 {
			if w.pf = slices.Index(dists, pd); w.pf < 0 {
				w.pf = len(dists)
				dists = append(dists, pd)
			}
		}
	}
	if ghrp {
		fams = append(fams, ghrpSigsD)
		for j := range ws {
			if _, ok := ws[j].p.(*policy.GHRP); ok {
				ws[j].fam = len(fams)
			}
		}
	}
	// The walkers walk each block one prefetch distance at a time, so
	// the block holds one schedule at a time: group 0 without
	// prefetching, group i+1 at distance dists[i].
	groups := make([][]int, len(dists)+1)
	for j := range ws {
		groups[ws[j].pf+1] = append(groups[ws[j].pf+1], j)
	}
	err := newBlockPass(stream, fams, dists).run(func(b *viewBlock) error {
		for g, js := range groups {
			var strides []int64
			if g > 0 {
				strides = b.schedule(g - 1)
			}
			runPolicies(workers, len(js), func(k int) { ws[js[k]].step(stream, b, strides) })
		}
		for j := range ws {
			if ws[j].err != nil {
				return ws[j].err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]TLBOnlyResult, len(ws))
	for j := range ws {
		out[j] = ws[j].res
	}
	return out, nil
}

// walker is one cell of a block pass: its policy and configuration,
// the view family of its signature feed (0 for none) and its prefetch
// distance's index in the pass (-1 for none), and the TLB and replay
// state it keeps from block to block. The TLB exists from the
// walker's first block to its last, so on a one-block stream a pass
// holds only as many as it walks at once.
type walker struct {
	cfg   TLBOnlyConfig
	p     tlb.Policy
	fam   int
	pf    int
	dense denseWalker
	res   TLBOnlyResult
	err   error
}

// step walks block b, prefetching by the block's schedule strides (nil
// without prefetching): it attaches the walker's TLB on the first
// block, switching a fed policy to its precomputed signatures, and
// finishes the result on the last.
func (w *walker) step(stream *l2stream.Stream, b *viewBlock, strides []int64) {
	d := &w.dense
	if d.t == nil {
		t, err := tlb.New(w.cfg.Hierarchy.L2, w.p)
		if err != nil {
			w.err = err
			return
		}
		switch pp := w.p.(type) {
		case *core.CHiRP:
			d.chirp = pp
			pp.BeginExternalSignatures()
		case *policy.GHRP:
			d.ghrp = pp
			pp.BeginExternalSignatures()
		}
		d.t = t
	}
	var (
		chirpSigs []uint32
		ghrpSigs  []uint64
	)
	if d.chirp != nil {
		chirpSigs = b.fams[w.fam].cols[0].u32[:b.n]
	} else if d.ghrp != nil {
		ghrpSigs = b.fams[w.fam].cols[0].u64[:b.n]
	}
	d.walk(b.pc(), b.vpn(), b.warmIdx-b.base, chirpSigs, ghrpSigs, strides, w.cfg.PrefetchDistance)
	if !b.final {
		return
	}
	if b.warmIdx == b.base+b.n {
		d.warm = d.t.Stats()
	}
	w.res = finishReplay(stream, w.p, d.t, d.warm)
	// The policy's metadata, sized when the TLB attached it, is
	// garbage from here on: the pass holds only the live walkers'.
	w.p, d.t, d.chirp, d.ghrp = nil, nil, nil, nil
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

// denseWalker drives one policy's TLB over the dense replay view,
// one block at a time. The Access structs live in the struct: they
// escape into the policy interface calls, so loop-locals would
// heap-allocate per access.
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

	chirp *core.CHiRP
	ghrp  *policy.GHRP
}

// walk replays one block: the signature feed (chirpSigs, demand in
// the low half and prefetch in the high, for a CHiRP; ghrpSigs for a
// GHRP), the demand walk, and Contains-gated prefetch fills from the
// block's schedule (strides nil without prefetching: an access with a
// stride fills the next distance pages along it), with the warm stats
// latched right before access warmAt of the block.
//
//chirp:hotpath
func (w *denseWalker) walk(pcs, vpns []uint64, warmAt int, chirpSigs []uint32, ghrpSigs []uint64, strides []int64, distance int) {
	t := w.t
	// The reslice pins the column to len(pcs) so the loop indexes
	// without per-column bounds checks.
	vpns = vpns[:len(pcs)]
	chirp, ghrp := w.chirp, w.ghrp
	for i := range pcs {
		if i == warmAt {
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
		if strides == nil || strides[i] == 0 {
			continue
		}
		pv := vpn
		for k := 0; k < distance; k++ {
			pv += uint64(strides[i])
			if t.Contains(pv) {
				continue
			}
			w.pa.PC = pcs[i]
			w.pa.VPN = pv
			t.InsertPrefetch(&w.pa, pv)
		}
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
	return measureCells(ctx, spec, stream, map[string]TLBOnlyResult{}, cellsOf(spec.Config, ps, factories))
}

// replayable reports whether a captured stream can drive every policy
// in ps: none observes branches without a signature feed.
func replayable(ps []tlb.Policy) bool { return !slices.ContainsFunc(ps, needsBranchEvents) }

// measure runs the fresh policies ps over spec's workload under
// spec.Config: measureCells without a way to build them again.
func measure(ctx context.Context, spec RunSpec, stream *l2stream.Stream, memo map[string]TLBOnlyResult, ps []tlb.Policy) ([]TLBOnlyResult, error) {
	return measureCells(ctx, spec, stream, memo, cellsOf(spec.Config, ps, nil))
}

// measureCells runs cells over spec's workload: a replay of stream
// through memo, the results already walked from it, when there is a
// stream and it can drive them all, and otherwise RunTLBOnly once per
// cell over a fresh source. Results are ordered like cells.
func measureCells(ctx context.Context, spec RunSpec, stream *l2stream.Stream, memo map[string]TLBOnlyResult, cells []cell) ([]TLBOnlyResult, error) {
	if stream != nil && !slices.ContainsFunc(cells, func(c cell) bool { return needsBranchEvents(c.p) }) {
		return replayCells(memo, stream, cells)
	}
	out := make([]TLBOnlyResult, len(cells))
	for i, c := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		src, err := spec.open()
		if err != nil {
			return nil, err
		}
		out[i], err = RunTLBOnly(src, c.p, c.cfg)
		closeSource(src)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
