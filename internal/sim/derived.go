// Derived replay views: the stream-pure precomputations ReplayMulti
// drives policies from. Everything here is a pure function of one
// captured l2stream.Stream plus a small configuration key, never of
// TLB or policy state:
//
//   - accessView: the dense access sequence as struct-of-arrays (PC,
//     VPN, set index for one L2 geometry, instruction-side flag) and
//     the warmup boundary's position in it.
//   - prefetch schedule: the stride prefetcher's fill candidates per
//     access, as a CSR. Stride decisions depend only on the demand
//     stream, so they are computed once per prefetch distance — from
//     an accessView's columns, without decoding the stream again — and
//     only the per-policy Contains gate runs at replay time.
//   - CHiRP signature sequence: per access, the Figure 5 demand
//     signature (pre path-push) and the prefetch-fill signature (post
//     path-push), packed into one uint32. Shared by every CHiRP
//     variant that agrees on the signature-relevant config subset
//     (core.Config.SignatureKey). Variants with no branch history need
//     only the access PCs, which the accessView already holds.
//   - GHRP signature sequence: one uint64 per access; GHRP's histories
//     advance only on branches, so it covers the demand hit/insert and
//     any prefetch fills alike.
//
// The views are memoized on the stream (l2stream.Derived: single-
// flight, budget-accounted) and persisted as derived sidecars when the
// stream belongs to a -capturedir store, so warm sweeps skip both the
// decode and the signature recomputation. Builders that need the event
// stream decode its buffer in l2stream.DecodeBlockSize blocks; no
// decoded copy of the event sequence outlives a build.
package sim

import (
	"encoding/binary"
	"fmt"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
)

// replayView is what the dense walkers read for one (L2 geometry,
// prefetch distance): an accessView's columns plus, when prefetching,
// a prefetch schedule. It is assembled per ReplayMulti call from the
// memoized views and owns none of the slices it holds.
type replayView struct {
	accessView

	// Prefetch fill schedule, CSR over access ordinals: access i's
	// fill candidates are pfVPN[pfOff[i]:pfOff[i+1]]. pfOff is nil
	// when prefetching is off.
	pfOff []uint32
	pfVPN []uint64
}

// replayViewFor assembles the stream's dense replay view for cfg's L2
// geometry and prefetch distance from the memoized (or persisted)
// accessView and prefetch schedule.
func replayViewFor(stream *l2stream.Stream, cfg TLBOnlyConfig) (*replayView, error) {
	av, err := accessViewFor(stream, cfg.l2Sets())
	if err != nil {
		return nil, err
	}
	v := &replayView{accessView: *av}
	if pd := cfg.PrefetchDistance; pd > 0 {
		ps, err := prefetchScheduleFor(stream, av, pd)
		if err != nil {
			return nil, err
		}
		v.pfOff, v.pfVPN = ps.off, ps.vpn
	}
	return v, nil
}

// l2Sets is the L2 TLB's set count, the geometry key of an accessView.
func (cfg TLBOnlyConfig) l2Sets() int { return cfg.Hierarchy.L2.Entries / cfg.Hierarchy.L2.Ways }

// accessView is the dense access sequence for one L2 geometry as
// struct-of-arrays. All slices are indexed by demand access ordinal and
// shared read-only across policies and replays.
type accessView struct {
	pc    []uint64
	vpn   []uint64
	set   []uint32 // VPN & setMask for the keyed geometry
	instr []uint8  // 1 = instruction-side access

	// warmIdx is the number of accesses preceding the warmup marker
	// (len(pc) when the marker trails every access, -1 when the stream
	// has no marker); replay latches warm stats right before access
	// warmIdx, which is where the marker event sat.
	warmIdx int
}

func (v *accessView) bytes() int64 {
	return int64(len(v.pc)*8 + len(v.vpn)*8 + len(v.set)*4 + len(v.instr))
}

// accessViewFor materializes (or recalls) the stream's accessView for
// an L2 geometry with sets sets.
func accessViewFor(stream *l2stream.Stream, sets int) (*accessView, error) {
	spec := &l2stream.DerivedSpec{
		Key:    fmt.Sprintf("av1:s%d", sets),
		Build:  func(s *l2stream.Stream) (any, error) { return buildAccessView(s, sets) },
		Bytes:  func(view any) int64 { return view.(*accessView).bytes() },
		Encode: func(view any) []byte { return encodeAccessView(view.(*accessView)) },
		Decode: func(s *l2stream.Stream, data []byte) (any, bool) {
			return decodeAccessView(s, data, sets)
		},
	}
	v, err := stream.Derived(spec)
	if err != nil {
		return nil, err
	}
	return v.(*accessView), nil
}

// blockFiller is a view builder's per-block state, driven by
// decodeBlocks. fill consumes one decoded block and reports false when
// it holds more accesses than the pre-sized view has room for (a
// stream whose scalars disagree with its buffer); filled is the number
// of accesses consumed so far.
type blockFiller interface {
	fill(evs []l2stream.Event) bool
	filled() int
}

// decodeBlocks decodes the stream in l2stream.DecodeBlockSize blocks —
// access and warmup events only when accessesOnly, every event
// otherwise — and feeds each block to f, then checks that f consumed
// exactly the stream's access count. view names the view being built
// in errors.
func decodeBlocks(s *l2stream.Stream, accessesOnly bool, f blockFiller, view string) error {
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
		if !f.fill(blk[:k]) {
			return fmt.Errorf("sim: %s decoded more accesses than the %d the stream reports", view, s.Accesses())
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if n := f.filled(); uint64(n) != s.Accesses() {
		return fmt.Errorf("sim: %s decoded %d accesses, stream reports %d", view, n, s.Accesses())
	}
	return nil
}

// buildAccessView decodes the stream's access events into the view's
// columns.
func buildAccessView(s *l2stream.Stream, sets int) (*accessView, error) {
	n := int(s.Accesses())
	b := &accessBuilder{
		v: &accessView{
			pc:      make([]uint64, n),
			vpn:     make([]uint64, n),
			set:     make([]uint32, n),
			instr:   make([]uint8, n),
			warmIdx: -1,
		},
		mask: uint64(sets - 1),
	}
	if err := decodeBlocks(s, true, b, "access view"); err != nil {
		return nil, err
	}
	return b.v, nil
}

// accessBuilder is buildAccessView's per-block state. The columns are
// sized to the stream's access count up front, so the per-event fill
// loop never allocates.
type accessBuilder struct {
	v    *accessView
	mask uint64
	n    int // accesses filled so far
}

func (b *accessBuilder) filled() int { return b.n }

// fill appends one decoded block of access events to the view.
//
//chirp:hotpath
func (b *accessBuilder) fill(evs []l2stream.Event) bool {
	v := b.v
	j := b.n
	for i := range evs {
		ev := &evs[i]
		if ev.Kind == l2stream.EventWarmup {
			v.warmIdx = j
			continue
		}
		if j >= len(v.pc) {
			return false
		}
		v.pc[j] = ev.PC
		v.vpn[j] = ev.VPN
		v.set[j] = uint32(ev.VPN & b.mask)
		if ev.Kind == l2stream.EventInstrAccess {
			v.instr[j] = 1
		}
		j++
	}
	b.n = j
	return true
}

// encodeAccessView serializes the view for the derived sidecar. The
// set-index array is recomputed at decode (one mask per access) rather
// than stored.
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
// rebuilds the in-memory form for the geometry. ok=false means corrupt
// or stale — the caller rebuilds from the stream.
func decodeAccessView(s *l2stream.Stream, data []byte, sets int) (*accessView, bool) {
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
	mask := uint64(sets - 1)
	v.set = make([]uint32, n)
	for i, vpn := range v.vpn {
		v.set[i] = uint32(vpn & mask)
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
// depends only on the access PCs and VPNs, not on the geometry av was
// built for, so its key omits the geometry.
func prefetchScheduleFor(stream *l2stream.Stream, av *accessView, pd int) (*prefetchSchedule, error) {
	spec := &l2stream.DerivedSpec{
		Key:   fmt.Sprintf("pf1:pd%d", pd),
		Build: func(*l2stream.Stream) (any, error) { return buildPrefetchSchedule(av, pd), nil },
		Bytes: func(view any) int64 {
			ps := view.(*prefetchSchedule)
			return int64(len(ps.off)*4 + len(ps.vpn)*8)
		},
		Encode: func(view any) []byte {
			ps := view.(*prefetchSchedule)
			out := make([]byte, 0, 8+len(ps.off)*4+len(ps.vpn)*8)
			out = binary.LittleEndian.AppendUint64(out, uint64(len(ps.off)-1))
			out = appendU32s(out, ps.off)
			return appendU64s(out, ps.vpn)
		},
		Decode: decodePrefetchSchedule,
	}
	v, err := stream.Derived(spec)
	if err != nil {
		return nil, err
	}
	return v.(*prefetchSchedule), nil
}

// buildPrefetchSchedule runs the shared stride prefetcher over the
// access columns exactly as a live replay would.
func buildPrefetchSchedule(av *accessView, pd int) *prefetchSchedule {
	pf := newStridePrefetcher(pd)
	ps := &prefetchSchedule{off: make([]uint32, len(av.pc)+1)}
	for i, pc := range av.pc {
		ps.vpn = append(ps.vpn, pf.observe(pc, av.vpn[i])...)
		ps.off[i+1] = uint32(len(ps.vpn))
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

// chirpSigsFor materializes (or recalls) the CHiRP signature sequence
// for cfg's signature-relevant configuration: per access, demand
// signature in the low half, prefetch-fill signature in the high half.
// pcs is the stream's access PC sequence (an accessView column), which
// is all a variant without branch history needs.
func chirpSigsFor(stream *l2stream.Stream, cfg core.Config, pcs []uint64) ([]uint32, error) {
	spec := &l2stream.DerivedSpec{
		Key: "chirp:" + cfg.SignatureKey(),
		Build: func(s *l2stream.Stream) (any, error) {
			if !cfg.UseCondHistory && !cfg.UseIndirectHistory {
				return chirpSigsFromPCs(cfg, pcs), nil
			}
			return buildCHiRPSigs(s, cfg)
		},
		Bytes: func(view any) int64 { return int64(len(view.([]uint32)) * 4) },
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
	}
	v, err := stream.Derived(spec)
	if err != nil {
		return nil, err
	}
	return v.([]uint32), nil
}

// chirpSigsFromPCs computes the signature sequence of a CHiRP variant
// that keeps no branch history. Its sequencer ignores every branch, so
// the access PCs alone determine the sequence and the stream need not
// be decoded.
func chirpSigsFromPCs(cfg core.Config, pcs []uint64) []uint32 {
	q := core.NewSigSequencer(cfg)
	out := make([]uint32, len(pcs))
	for i, pc := range pcs {
		sig, psig := q.OnAccess(pc)
		out[i] = uint32(sig) | uint32(psig)<<16
	}
	return out
}

// buildCHiRPSigs replays the signature computation over the stream's
// events through the same Histories/signature code the live policy
// runs (core.SigSequencer).
func buildCHiRPSigs(s *l2stream.Stream, cfg core.Config) ([]uint32, error) {
	b := &chirpSigBuilder{q: core.NewSigSequencer(cfg), out: make([]uint32, s.Accesses())}
	if err := decodeBlocks(s, false, b, "chirp signature view"); err != nil {
		return nil, err
	}
	return b.out, nil
}

// chirpSigBuilder is buildCHiRPSigs' per-block state: the signature
// sequencer and the pre-sized output it fills.
type chirpSigBuilder struct {
	q   *core.SigSequencer
	out []uint32
	n   int
}

func (b *chirpSigBuilder) filled() int { return b.n }

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

// ghrpSigsFor materializes (or recalls) the GHRP signature sequence:
// one signature per access, valid for its hit/insert and prefetch
// fills alike.
func ghrpSigsFor(stream *l2stream.Stream) ([]uint64, error) {
	spec := &l2stream.DerivedSpec{
		Key:   "ghrp:gs1",
		Build: buildGHRPSigs,
		Bytes: func(view any) int64 { return int64(len(view.([]uint64)) * 8) },
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
	}
	v, err := stream.Derived(spec)
	if err != nil {
		return nil, err
	}
	return v.([]uint64), nil
}

// buildGHRPSigs runs the GHRP history over the stream's events,
// recording each access's signature.
func buildGHRPSigs(s *l2stream.Stream) (any, error) {
	b := &ghrpSigBuilder{out: make([]uint64, s.Accesses())}
	if err := decodeBlocks(s, false, b, "ghrp signature view"); err != nil {
		return nil, err
	}
	return b.out, nil
}

// ghrpSigBuilder is buildGHRPSigs' per-block state.
type ghrpSigBuilder struct {
	h   policy.GHRPHistory
	out []uint64
	n   int
}

func (b *ghrpSigBuilder) filled() int { return b.n }

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
