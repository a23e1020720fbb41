// Derived replay views: the stream-pure precomputations ReplayMulti
// drives policies from. Everything here is a pure function of one
// captured l2stream.Stream plus a small configuration key, never of
// TLB or policy state:
//
//   - accessView: the dense access sequence as struct-of-arrays (PC,
//     VPN, instruction-side flag) and the warmup boundary's position
//     in it. It holds no set index, so every L2 geometry shares it;
//     the walker's tlb.Lookup masks the VPN itself.
//   - prefetch schedule: the stride prefetcher's fill candidates per
//     access, as a CSR. Stride decisions depend only on the demand
//     stream, so they are computed once per prefetch distance — from
//     an accessView's columns, without decoding the stream again — and
//     only the per-policy Contains gate runs at replay time.
//   - CHiRP signature sequence: per access, the Figure 5 demand
//     signature (pre path-push) and the prefetch-fill signature (post
//     path-push), packed into one uint32. Shared by every CHiRP
//     variant that agrees on the signature-relevant config subset
//     (core.Config.SignatureKey). Its builder runs core.SigSequencer,
//     the code a live CHiRP runs; variants with no branch history
//     read access events only.
//   - GHRP signature sequence: one uint64 per access; GHRP's histories
//     advance only on branches, so it covers the demand hit/insert and
//     any prefetch fills alike.
//
// The views are memoized on the stream (l2stream.DerivedAll: single-
// flight) and persisted as derived sidecars when the
// stream belongs to a -capturedir store, so warm sweeps skip both the
// decode and the signature recomputation. The views that decode the
// stream (the access view and every signature view) are requested
// together, and every one of them the memo and the sidecars lack is
// filled from one block-decoded pass over the buffer (buildViews) —
// over access events only when no view reads branches. No decoded
// copy of the event sequence outlives the pass.
package sim

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
)

// replayView is what the dense walkers read for one prefetch distance:
// an accessView's columns plus, when prefetching, a prefetch schedule.
// It is assembled per ReplayMulti call from the memoized views and
// owns none of the slices it holds.
type replayView struct {
	accessView

	// Prefetch fill schedule, CSR over access ordinals: access i's
	// fill candidates are pfVPN[pfOff[i]:pfOff[i+1]]. pfOff is nil
	// when prefetching is off.
	pfOff []uint32
	pfVPN []uint64
}

// replayViews is every derived view one ReplayMulti call walks,
// fetched before its policies fan out.
type replayViews struct {
	rv        *replayView
	chirpSigs [][]uint32 // per policy: a CHiRP's signature sequence, nil for the rest
	ghrpSigs  []uint64   // nil when no policy is GHRP
}

// viewsFor fetches the views policies need under cfg. One DerivedAll
// call asks for the access view plus the signature views of every
// CHiRP configuration and of GHRP among policies, so the ones neither
// memoized nor persisted build in one decode pass. The prefetch
// schedule then comes from the access view's columns.
func viewsFor(stream *l2stream.Stream, policies []tlb.Policy, cfg TLBOnlyConfig) (*replayViews, error) {
	decoded, keys := decodedFor(policies)
	vs, err := decodedViews(stream, decoded)
	if err != nil {
		return nil, err
	}
	av := vs[0].(*accessView)
	out := &replayViews{rv: &replayView{accessView: *av}, chirpSigs: make([][]uint32, len(policies))}
	byKey := map[string][]uint32{}
	for i, d := range decoded {
		switch v := vs[i].(type) {
		case []uint32:
			byKey[d.spec.Key] = v
		case []uint64:
			out.ghrpSigs = v
		}
	}
	for j, k := range keys {
		if k != "" {
			out.chirpSigs[j] = byKey[k]
		}
	}
	if pd := cfg.PrefetchDistance; pd > 0 {
		ps, err := prefetchScheduleFor(stream, av, pd)
		if err != nil {
			return nil, err
		}
		out.rv.pfOff, out.rv.pfVPN = ps.off, ps.vpn
	}
	return out, nil
}

// decodedFor lists the decoding views policies read: the access view,
// then the signature view of each distinct CHiRP signature
// configuration and GHRP's, once each. keys holds each policy's CHiRP
// signature key ("" for the rest).
func decodedFor(policies []tlb.Policy) (decoded []*decodedView, keys []string) {
	decoded = []*decodedView{accessViewD}
	keys = make([]string, len(policies))
	wantGHRP := false
	for j, p := range policies {
		switch pp := p.(type) {
		case *core.CHiRP:
			c := pp.Config()
			keys[j] = chirpSigsKey(c)
			if !slices.Contains(keys[:j], keys[j]) {
				decoded = append(decoded, chirpSigsDecl(c, keys[j]))
			}
		case *policy.GHRP:
			wantGHRP = true
		}
	}
	if wantGHRP {
		decoded = append(decoded, ghrpSigsD)
	}
	return decoded, keys
}

// usesBranchHistory reports whether cfg's signatures read branch
// history, so that its signature view must decode branch events.
func usesBranchHistory(cfg core.Config) bool { return cfg.UseCondHistory || cfg.UseIndirectHistory }

// viewBuilder is a decoding view's per-pass state, driven by
// decodeBlocks. fill consumes one decoded block and reports false
// when it holds more accesses than the pre-sized view has room for (a
// stream whose scalars disagree with its buffer); filled is the
// number of accesses consumed so far, and view the finished view.
type viewBuilder interface {
	fill(evs []l2stream.Event) bool
	filled() int
	view() any
}

// decodedView declares one view family that decodes the stream: its
// DerivedSpec, the name its errors carry, whether its builder reads
// branch events, and the builder's constructor. The builder allocates
// the view's columns, so it is constructed only for a view that is
// actually built.
type decodedView struct {
	spec       *l2stream.DerivedSpec
	name       string
	branches   bool
	newBuilder func(s *l2stream.Stream) viewBuilder
}

// decodedViews returns the views ds from the stream's memo or
// sidecars, building all the missing ones in one decode pass.
func decodedViews(s *l2stream.Stream, ds []*decodedView) ([]any, error) {
	specs := make([]*l2stream.DerivedSpec, len(ds))
	for i, d := range ds {
		specs[i] = d.spec
	}
	return s.DerivedAll(specs, func(missing []int) ([]any, error) {
		m := make([]*decodedView, len(missing))
		for k, i := range missing {
			m[k] = ds[i]
		}
		return buildViews(s, m)
	})
}

// buildViews builds every view in ds from one decode pass over s —
// access and warmup events only when no builder reads branches.
func buildViews(s *l2stream.Stream, ds []*decodedView) ([]any, error) {
	bs := make([]viewBuilder, len(ds))
	accessesOnly := true
	for i, d := range ds {
		bs[i] = d.newBuilder(s)
		accessesOnly = accessesOnly && !d.branches
	}
	if err := decodeBlocks(s, accessesOnly, bs, ds); err != nil {
		return nil, err
	}
	out := make([]any, len(bs))
	for i, b := range bs {
		out[i] = b.view()
	}
	return out, nil
}

// decodeBlocks decodes the stream in l2stream.DecodeBlockSize blocks —
// access and warmup events only when accessesOnly, every event
// otherwise — and feeds each block to every builder, then checks that
// each consumed exactly the stream's access count. ds names the views
// in errors.
func decodeBlocks(s *l2stream.Stream, accessesOnly bool, bs []viewBuilder, ds []*decodedView) error {
	d := s.Decode()
	var blk [l2stream.DecodeBlockSize]l2stream.Event
	for {
		var k int
		if accessesOnly {
			k = d.NextAccessBlock(blk[:])
		} else {
			k = d.NextBlock(blk[:])
		}
		if k == 0 {
			break
		}
		for i, b := range bs {
			if !b.fill(blk[:k]) {
				return fmt.Errorf("sim: %s decoded more accesses than the %d the stream reports", ds[i].name, s.Accesses())
			}
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	for i, b := range bs {
		if n := b.filled(); uint64(n) != s.Accesses() {
			return fmt.Errorf("sim: %s decoded %d accesses, stream reports %d", ds[i].name, n, s.Accesses())
		}
	}
	return nil
}

// accessView is the dense access sequence as struct-of-arrays. All
// slices are indexed by demand access ordinal and shared read-only
// across policies, replays and L2 geometries.
type accessView struct {
	pc    []uint64
	vpn   []uint64
	instr []uint8 // 1 = instruction-side access

	// warmIdx is the number of accesses preceding the warmup marker
	// (len(pc) when the marker trails every access, -1 when the stream
	// has no marker); replay latches warm stats right before access
	// warmIdx, which is where the marker event sat.
	warmIdx int
}

// accessViewD declares the access view. Its key carries no L2
// geometry: the view holds none.
var accessViewD = &decodedView{
	spec: &l2stream.DerivedSpec{
		Key:    "av2",
		Encode: func(view any) []byte { return encodeAccessView(view.(*accessView)) },
		Decode: func(s *l2stream.Stream, data []byte) (any, bool) { return decodeAccessView(s, data) },
	},
	name: "access view",
	newBuilder: func(s *l2stream.Stream) viewBuilder {
		n := int(s.Accesses())
		return &accessBuilder{v: &accessView{
			pc:      make([]uint64, n),
			vpn:     make([]uint64, n),
			instr:   make([]uint8, n),
			warmIdx: -1,
		}}
	},
}

// accessViewFor materializes (or recalls) the stream's accessView.
func accessViewFor(stream *l2stream.Stream) (*accessView, error) {
	vs, err := decodedViews(stream, []*decodedView{accessViewD})
	if err != nil {
		return nil, err
	}
	return vs[0].(*accessView), nil
}

// accessBuilder is the access view's per-pass state. The columns are
// sized to the stream's access count up front, so the per-event fill
// loop never allocates.
type accessBuilder struct {
	v *accessView
	n int // accesses filled so far
}

func (b *accessBuilder) filled() int { return b.n }

func (b *accessBuilder) view() any { return b.v }

// fill appends one decoded block's access events to the view; it
// skips the branch events a pass shared with a signature view carries.
//
//chirp:hotpath
func (b *accessBuilder) fill(evs []l2stream.Event) bool {
	v := b.v
	j := b.n
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case l2stream.EventBranch:
			continue
		case l2stream.EventWarmup:
			v.warmIdx = j
			continue
		}
		if j >= len(v.pc) {
			return false
		}
		v.pc[j] = ev.PC
		v.vpn[j] = ev.VPN
		if ev.Kind == l2stream.EventInstrAccess {
			v.instr[j] = 1
		}
		j++
	}
	b.n = j
	return true
}

// encodeAccessView serializes the view for the derived sidecar.
func encodeAccessView(v *accessView) []byte {
	n := len(v.pc)
	out := make([]byte, 0, 16+n*17)
	out = binary.LittleEndian.AppendUint64(out, uint64(n))
	out = binary.LittleEndian.AppendUint64(out, uint64(int64(v.warmIdx)))
	out = appendU64s(out, v.pc)
	out = appendU64s(out, v.vpn)
	return append(out, v.instr...)
}

// decodeAccessView validates a sidecar payload against the stream and
// rebuilds the in-memory form. ok=false means corrupt or stale — the
// caller rebuilds from the stream.
func decodeAccessView(s *l2stream.Stream, data []byte) (*accessView, bool) {
	if len(data) < 16 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint64(data))
	warmIdx := int(int64(binary.LittleEndian.Uint64(data[8:])))
	if uint64(n) != s.Accesses() || warmIdx < -1 || warmIdx > n || len(data) != 16+n*17 {
		return nil, false
	}
	v := &accessView{warmIdx: warmIdx}
	pos := 16
	v.pc, pos = readU64s(data, pos, n)
	v.vpn, pos = readU64s(data, pos, n)
	v.instr = append([]uint8(nil), data[pos:pos+n]...)
	for _, b := range v.instr {
		if b > 1 {
			return nil, false
		}
	}
	return v, true
}

// prefetchSchedule is the stride prefetcher's fill schedule over the
// demand access sequence, in replayView's CSR layout.
type prefetchSchedule struct {
	off []uint32
	vpn []uint64
}

// prefetchScheduleFor materializes (or recalls) the schedule for
// prefetch distance pd, building it from av's columns. The schedule
// depends only on the access PCs and VPNs, so its key omits the L2
// geometry.
func prefetchScheduleFor(stream *l2stream.Stream, av *accessView, pd int) (*prefetchSchedule, error) {
	spec := &l2stream.DerivedSpec{
		Key: fmt.Sprintf("pf1:pd%d", pd),
		Encode: func(view any) []byte {
			ps := view.(*prefetchSchedule)
			out := make([]byte, 0, 8+len(ps.off)*4+len(ps.vpn)*8)
			out = binary.LittleEndian.AppendUint64(out, uint64(len(ps.off)-1))
			out = appendU32s(out, ps.off)
			return appendU64s(out, ps.vpn)
		},
		Decode: decodePrefetchSchedule,
	}
	vs, err := stream.DerivedAll([]*l2stream.DerivedSpec{spec}, func([]int) ([]any, error) {
		return []any{buildPrefetchSchedule(av, pd)}, nil
	})
	if err != nil {
		return nil, err
	}
	return vs[0].(*prefetchSchedule), nil
}

// buildPrefetchSchedule runs the shared stride prefetcher over the
// access columns exactly as a live replay would. It runs it twice —
// once to size the CSR, once to fill it — so the fill column is
// allocated at its exact length and the view holds no append slack.
func buildPrefetchSchedule(av *accessView, pd int) *prefetchSchedule {
	ps := &prefetchSchedule{off: make([]uint32, len(av.pc)+1)}
	pf := newStridePrefetcher(pd)
	for i, pc := range av.pc {
		ps.off[i+1] = ps.off[i] + uint32(len(pf.observe(pc, av.vpn[i])))
	}
	ps.vpn = make([]uint64, ps.off[len(av.pc)])
	pf = newStridePrefetcher(pd)
	for i, pc := range av.pc {
		copy(ps.vpn[ps.off[i]:], pf.observe(pc, av.vpn[i]))
	}
	return ps
}

// decodePrefetchSchedule validates a schedule sidecar payload against
// the stream. ok=false means corrupt or stale.
func decodePrefetchSchedule(s *l2stream.Stream, data []byte) (any, bool) {
	if len(data) < 8 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint64(data))
	if uint64(n) != s.Accesses() || len(data) < 8+(n+1)*4 {
		return nil, false
	}
	ps := &prefetchSchedule{}
	pos := 8
	ps.off, pos = readU32s(data, pos, n+1)
	last := uint32(0)
	for _, o := range ps.off {
		if o < last {
			return nil, false
		}
		last = o
	}
	if ps.off[0] != 0 || len(data) != pos+int(last)*8 {
		return nil, false
	}
	ps.vpn, _ = readU64s(data, pos, int(last))
	return ps, true
}

// chirpSigsKey is the derived key of cfg's CHiRP signature sequence:
// per access, demand signature in the low half, prefetch-fill
// signature in the high half.
func chirpSigsKey(cfg core.Config) string { return "chirp:" + cfg.SignatureKey() }

// chirpSigsDecl declares the signature view of a CHiRP configuration;
// key is chirpSigsKey(cfg). A configuration without branch history
// ignores every branch, so its builder reads access events only.
func chirpSigsDecl(cfg core.Config, key string) *decodedView {
	return &decodedView{
		spec: &l2stream.DerivedSpec{
			Key: key,
			Encode: func(view any) []byte {
				sigs := view.([]uint32)
				out := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(sigs)*4), uint64(len(sigs)))
				return appendU32s(out, sigs)
			},
			Decode: func(s *l2stream.Stream, data []byte) (any, bool) {
				if len(data) < 8 {
					return nil, false
				}
				n := int(binary.LittleEndian.Uint64(data))
				if uint64(n) != s.Accesses() || len(data) != 8+n*4 {
					return nil, false
				}
				sigs, _ := readU32s(data, 8, n)
				return sigs, true
			},
		},
		name:     "chirp signature view",
		branches: usesBranchHistory(cfg),
		newBuilder: func(s *l2stream.Stream) viewBuilder {
			return &chirpSigBuilder{q: core.NewSigSequencer(cfg), out: make([]uint32, s.Accesses())}
		},
	}
}

// chirpSigBuilder runs the stream's events through core.SigSequencer,
// the code a live CHiRP runs, into a pre-sized output.
type chirpSigBuilder struct {
	q   *core.SigSequencer
	out []uint32
	n   int
}

func (b *chirpSigBuilder) filled() int { return b.n }

func (b *chirpSigBuilder) view() any { return b.out }

// fill feeds one decoded block through the sequencer.
//
//chirp:hotpath
func (b *chirpSigBuilder) fill(evs []l2stream.Event) bool {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			if b.n >= len(b.out) {
				return false
			}
			sig, psig := b.q.OnAccess(ev.PC)
			b.out[b.n] = uint32(sig) | uint32(psig)<<16
			b.n++
		case l2stream.EventBranch:
			b.q.OnBranch(ev.PC, ev.Conditional, ev.Indirect)
		}
	}
	return true
}

// ghrpSigsD declares the GHRP signature sequence: one signature per
// access, valid for its hit/insert and prefetch fills alike.
var ghrpSigsD = &decodedView{
	spec: &l2stream.DerivedSpec{
		Key: "ghrp:gs1",
		Encode: func(view any) []byte {
			sigs := view.([]uint64)
			out := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(sigs)*8), uint64(len(sigs)))
			return appendU64s(out, sigs)
		},
		Decode: func(s *l2stream.Stream, data []byte) (any, bool) {
			if len(data) < 8 {
				return nil, false
			}
			n := int(binary.LittleEndian.Uint64(data))
			if uint64(n) != s.Accesses() || len(data) != 8+n*8 {
				return nil, false
			}
			sigs, _ := readU64s(data, 8, n)
			return sigs, true
		},
	},
	name:     "ghrp signature view",
	branches: true,
	newBuilder: func(s *l2stream.Stream) viewBuilder {
		return &ghrpSigBuilder{out: make([]uint64, s.Accesses())}
	},
}

// ghrpSigBuilder runs the GHRP history over the stream's events,
// recording each access's signature.
type ghrpSigBuilder struct {
	h   policy.GHRPHistory
	out []uint64
	n   int
}

func (b *ghrpSigBuilder) filled() int { return b.n }

func (b *ghrpSigBuilder) view() any { return b.out }

// fill feeds one decoded block through the GHRP history.
//
//chirp:hotpath
func (b *ghrpSigBuilder) fill(evs []l2stream.Event) bool {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			if b.n >= len(b.out) {
				return false
			}
			b.out[b.n] = b.h.Signature(ev.PC)
			b.n++
		case l2stream.EventBranch:
			b.h.OnBranch(ev.PC, ev.Conditional, ev.Taken)
		}
	}
	return true
}

func appendU64s(dst []byte, xs []uint64) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

func appendU32s(dst []byte, xs []uint32) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, x)
	}
	return dst
}

func readU64s(data []byte, pos, n int) ([]uint64, int) {
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[pos:])
		pos += 8
	}
	return out, pos
}

func readU32s(data []byte, pos, n int) ([]uint32, int) {
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[pos:])
		pos += 4
	}
	return out, pos
}
