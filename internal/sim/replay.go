package sim

import (
	"fmt"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
)

// CaptureConfig projects a TLB-only configuration onto its
// policy-invariant part — everything above the L2 policy boundary.
// Runs whose CaptureConfigs are equal share one captured stream, no
// matter which L2 policy, L2 geometry (beyond the page size), or
// prefetch distance they use.
func CaptureConfig(cfg TLBOnlyConfig) l2stream.Config {
	return l2stream.Config{
		L1I:            cfg.Hierarchy.L1I,
		L1D:            cfg.Hierarchy.L1D,
		PageShift:      cfg.Hierarchy.L2.PageShift,
		Instructions:   cfg.Instructions,
		WarmupFraction: cfg.WarmupFraction,
	}
}

// CaptureKey returns the stream-cache key for a workload under cfg.
// spec is the content hash of the workload spec the workload came from
// ("" for legacy suite workloads and trace files); it keeps captures
// from colliding across specs that reuse a workload name.
func CaptureKey(workload, spec string, cfg TLBOnlyConfig) l2stream.Key {
	return l2stream.Key{Workload: workload, Spec: spec, Config: CaptureConfig(cfg)}
}

// StreamFor returns the captured stream for a workload from cache,
// capturing it on first use. open must return a fresh bounded source
// for the workload (it is only called when the capture actually runs).
func StreamFor(cache *l2stream.Cache, workload, spec string, cfg TLBOnlyConfig, open func() (trace.Source, error)) (*l2stream.Stream, error) {
	return cache.GetOrCapture(CaptureKey(workload, spec, cfg), func(opts l2stream.CaptureOptions) (*l2stream.Stream, error) {
		src, err := open()
		if err != nil {
			return nil, err
		}
		return l2stream.Capture(src, CaptureConfig(cfg), opts)
	})
}

// ReplayTLBOnly drives the L2 TLB under l2p over a captured stream,
// producing a TLBOnlyResult bit-identical to RunTLBOnly over the same
// trace and configuration: the event sequence reproduces every L2
// lookup, insert, prefetch-train and branch callback in order, and the
// policy-invariant scalars (instruction totals, warmup position, L1
// miss counts) come from the capture. Spilled streams replay as a
// direct run over the spill file, which holds exactly the record
// prefix RunTLBOnly would consume.
func ReplayTLBOnly(stream *l2stream.Stream, l2p tlb.Policy, cfg TLBOnlyConfig) (TLBOnlyResult, error) {
	if got, want := stream.Config(), CaptureConfig(cfg); got != want {
		return TLBOnlyResult{}, fmt.Errorf("sim: stream captured under %+v cannot replay %+v", got, want)
	}
	if stream.Spilled() {
		// Hold a reference for the whole pass: a Cache.Close racing
		// this replay defers the file's deletion until release runs.
		path, release, err := stream.RetainSpill()
		if err != nil {
			return TLBOnlyResult{}, err
		}
		defer release()
		fs, err := trace.OpenFile(path)
		if err != nil {
			return TLBOnlyResult{}, fmt.Errorf("sim: opening spilled stream: %w", err)
		}
		defer fs.Close()
		return RunTLBOnly(fs, l2p, cfg)
	}
	if !stream.Warmed() {
		// The same failure RunTLBOnly reports for a too-short trace.
		return TLBOnlyResult{}, fmt.Errorf("sim: trace ended before warmup boundary (%d < %d instructions)", stream.Instructions(), stream.WarmupAt())
	}

	l2, err := tlb.New(cfg.Hierarchy.L2, l2p)
	if err != nil {
		return TLBOnlyResult{}, err
	}
	defer l2.Release()
	bo, observesBranches := l2p.(tlb.BranchObserver)

	var pf *stridePrefetcher
	if cfg.PrefetchDistance > 0 {
		pf = newStridePrefetcher(cfg.PrefetchDistance)
	}

	// Decode block by block straight into the replay loop; policies
	// that do not observe branches take the access-only decoder, which
	// skips the branch payloads they would discard.
	rs := &replayState{l2: l2, pf: pf, bo: bo}
	d := stream.Decode()
	var blk [l2stream.DecodeBlockSize]l2stream.Event
	for {
		var k int
		if observesBranches {
			k = d.NextBlock(blk[:])
		} else {
			k = d.NextAccessBlock(blk[:])
		}
		if k == 0 {
			break
		}
		rs.replayEvents(blk[:k])
	}
	if err := d.Err(); err != nil {
		return TLBOnlyResult{}, err
	}

	l2.FlushAccounting()
	publishRun(l2p, l2)
	return replayResult(stream, l2p, l2, rs.warm), nil
}

// replayResult assembles a replayed policy's result from its finished
// L2 TLB and the stats latched at the warmup marker. Shared by the
// solo and fused replay drivers so they agree field for field.
func replayResult(stream *l2stream.Stream, l2p tlb.Policy, l2 *tlb.TLB, warmStats tlb.Stats) TLBOnlyResult {
	st := l2.Stats()
	res := TLBOnlyResult{
		Policy:       l2p.Name(),
		Instructions: stream.Instructions() - stream.WarmupInstructions(),
		L2Accesses:   st.Accesses,
		L2Misses:     st.Misses - warmStats.Misses,
		Efficiency:   st.Efficiency(),
		L1IMisses:    stream.L1IMisses(),
		L1DMisses:    stream.L1DMisses(),
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.L2Misses) / (float64(res.Instructions) / 1000)
	}
	if ta, ok := l2p.(tlb.TableAccounting); ok {
		res.TableReads, res.TableWrites = ta.TableAccesses()
		if st.Accesses > 0 {
			res.TableAccessRate = float64(res.TableReads+res.TableWrites) / float64(st.Accesses)
		}
	}
	return res
}

// replayState is the replay driver's inner-loop state. The event walk
// is a method rather than inline code because it is //chirp:hotpath,
// and the per-event Access structs live in the struct: they escape
// into the policy interface calls, so a loop-local struct would
// heap-allocate once per event.
type replayState struct {
	l2     *tlb.TLB
	pf     *stridePrefetcher
	bo     tlb.BranchObserver // nil when the policy ignores branches
	warm   tlb.Stats          // L2 stats latched at the warmup marker
	a2, pa tlb.Access
}

// replayEvents drives one decoded block of events through the L2 TLB,
// latching the L2 stats into r.warm at the warmup marker.
//
//chirp:hotpath
func (r *replayState) replayEvents(evs []l2stream.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			instr := ev.Kind == l2stream.EventInstrAccess
			r.a2 = tlb.Access{PC: ev.PC, VPN: ev.VPN, Instr: instr}
			if _, hit := r.l2.Lookup(&r.a2); !hit {
				r.l2.Insert(&r.a2, ev.VPN)
			}
			if r.pf != nil {
				// Same contract as RunTLBOnly: train on the full demand
				// stream, fill through InsertPrefetch.
				for _, pv := range r.pf.observe(ev.PC, ev.VPN) {
					if r.l2.Contains(pv) {
						continue
					}
					r.pa = tlb.Access{PC: ev.PC, VPN: pv, Instr: instr}
					r.l2.InsertPrefetch(&r.pa, pv)
				}
			}
		case l2stream.EventBranch:
			if r.bo != nil {
				r.bo.OnBranch(ev.PC, ev.Conditional, ev.Indirect, ev.Taken, ev.Target)
			}
		case l2stream.EventWarmup:
			r.warm = r.l2.Stats()
		}
	}
}

// StreamVPNs extracts the L2 demand-access VPN sequence from a
// captured stream — the input CollectL2Stream produces, without
// re-running the generator and L1 filters. Spilled streams fall back
// to CollectL2Stream over the spill file.
func StreamVPNs(stream *l2stream.Stream, cfg TLBOnlyConfig) ([]uint64, error) {
	if got, want := stream.Config(), CaptureConfig(cfg); got != want {
		return nil, fmt.Errorf("sim: stream captured under %+v cannot serve %+v", got, want)
	}
	if stream.Spilled() {
		path, release, err := stream.RetainSpill()
		if err != nil {
			return nil, err
		}
		defer release()
		fs, err := trace.OpenFile(path)
		if err != nil {
			return nil, fmt.Errorf("sim: opening spilled stream: %w", err)
		}
		defer fs.Close()
		return CollectL2Stream(fs, cfg)
	}
	// The access-only decoder yields exactly the access sequence (plus
	// the warmup marker, dropped here).
	vpns := make([]uint64, 0, stream.Accesses())
	d := stream.Decode()
	var blk [l2stream.DecodeBlockSize]l2stream.Event
	for {
		k := d.NextAccessBlock(blk[:])
		if k == 0 {
			break
		}
		for i := range blk[:k] {
			if blk[i].Kind != l2stream.EventWarmup {
				vpns = append(vpns, blk[i].VPN)
			}
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return vpns, nil
}
