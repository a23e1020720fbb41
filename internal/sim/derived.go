// Derived replay views: the stream-pure precomputations the replay
// walkers are driven from. Everything here is a pure function of one
// captured l2stream.Stream plus a small configuration key, never of
// TLB or policy state:
//
//   - access view: the dense access sequence as struct-of-arrays (PC
//     and VPN) and the warmup boundary's position in it. It holds no
//     set index, so every L2 geometry shares it; the walker's
//     tlb.Lookup masks the VPN itself.
//   - prefetch schedule: the stride prefetcher's decision per access,
//     as the stride to prefetch along (0 for none): a prefetching
//     access's fill candidates are the next PrefetchDistance pages
//     along it. Stride decisions depend only on the demand stream, so
//     each block's schedule is computed once per prefetch distance
//     from the access view's columns and shared by every walker at
//     that distance; only the per-policy Contains gate runs at replay
//     time. The schedule is never persisted: it needs no decode pass.
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
// No view is ever whole in memory. A block pass (blockPass) reads
// every family a replay needs in blocks of blockAccesses accesses:
// from the family's sidecar when the stream belongs to a -capturedir
// store that has one, and otherwise from one decode pass over the
// events shared by every family without a sidecar — over access
// events only when none of them reads branches. That pass writes each
// block of each family it builds into the family's new sidecar, so
// warm sweeps skip both the decode and the signature recomputation.
package sim

import (
	"errors"
	"fmt"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
)

// viewBlockSize is how many accesses a block pass reads per block. It
// keeps a pass's buffers to a few MiB however long the stream: every
// family's block, the prefetch schedules, and the decoder's window.
// Every stream of the paper's 3 M-instruction runs stays one block,
// with buffers sized to its access count.
const viewBlockSize = 1 << 16

// blockAccesses is the block length passes use: viewBlockSize, which
// tests lower to cross block boundaries on short streams.
var blockAccesses = viewBlockSize

// errViewCorrupt reports a sidecar that proved corrupt after walkers
// had consumed blocks of it. The reader removed the file, so walking
// again with fresh policies builds the family from the stream.
var errViewCorrupt = errors.New("sim: a derived sidecar failed its checksum in mid-walk")

// usesBranchHistory reports whether cfg's signatures read branch
// history, so that its signature view must decode branch events.
func usesBranchHistory(cfg core.Config) bool { return cfg.UseCondHistory || cfg.UseIndirectHistory }

// column is one block of one view column: 8-byte values in u64 or
// 4-byte values in u32, as the family's DerivedSpec lays it out.
type column struct {
	u64 []uint64
	u32 []uint32
}

// viewBuilder is a decoding view family's state in a decode pass. fill
// consumes a run of decoded events whose accesses go to the family's
// block columns from index j on.
type viewBuilder interface {
	fill(evs []l2stream.Event, j int)
}

// decodedView declares one view family that decodes the stream: its
// DerivedSpec, whether its builder reads branch events, and the
// builder's constructor, which receives the block columns the builder
// fills.
type decodedView struct {
	spec       *l2stream.DerivedSpec
	branches   bool
	newBuilder func(cols []column) viewBuilder
}

// accessViewD declares the access view. Its key carries no L2
// geometry: the view holds none. Its payload is the access count and
// the warmup index, then the pc and vpn columns. Version 3 dropped
// version 2's instruction-side byte column, which no walker reads.
var accessViewD = &decodedView{
	spec: &l2stream.DerivedSpec{Key: "av3", Words: 2, Columns: []int{8, 8}},
	newBuilder: func(cols []column) viewBuilder {
		return &accessBuilder{pc: cols[0].u64, vpn: cols[1].u64}
	},
}

// accessBuilder fills the access view's columns.
type accessBuilder struct{ pc, vpn []uint64 }

// fill copies the accesses' PCs and VPNs; it skips the branch events
// a pass shared with a signature view carries.
//
//chirp:hotpath
func (b *accessBuilder) fill(evs []l2stream.Event, j int) {
	for i := range evs {
		ev := &evs[i]
		if ev.Kind != l2stream.EventInstrAccess && ev.Kind != l2stream.EventDataAccess {
			continue
		}
		b.pc[j] = ev.PC
		b.vpn[j] = ev.VPN
		j++
	}
}

// chirpSigsKey is the derived key of cfg's CHiRP signature sequence:
// per access, demand signature in the low half, prefetch-fill
// signature in the high half.
func chirpSigsKey(cfg core.Config) string { return "chirp:" + cfg.SignatureKey() }

// chirpSigsDecl declares the signature view of a CHiRP configuration;
// key is chirpSigsKey(cfg). Its payload is the access count, then the
// signature column. A configuration without branch history ignores
// every branch, so its builder reads access events only.
func chirpSigsDecl(cfg core.Config, key string) *decodedView {
	return &decodedView{
		spec:     &l2stream.DerivedSpec{Key: key, Words: 1, Columns: []int{4}},
		branches: usesBranchHistory(cfg),
		newBuilder: func(cols []column) viewBuilder {
			return &chirpSigBuilder{q: core.NewSigSequencer(cfg), out: cols[0].u32}
		},
	}
}

// chirpSigBuilder runs the stream's events through core.SigSequencer,
// the code a live CHiRP runs.
type chirpSigBuilder struct {
	q   *core.SigSequencer
	out []uint32
}

// fill feeds a run of decoded events through the sequencer.
//
//chirp:hotpath
func (b *chirpSigBuilder) fill(evs []l2stream.Event, j int) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			sig, psig := b.q.OnAccess(ev.PC)
			b.out[j] = uint32(sig) | uint32(psig)<<16
			j++
		case l2stream.EventBranch:
			b.q.OnBranch(ev.PC, ev.Conditional, ev.Indirect)
		}
	}
}

// ghrpSigsD declares the GHRP signature sequence: one signature per
// access, valid for its hit/insert and prefetch fills alike. Its
// payload is the access count, then the signature column.
var ghrpSigsD = &decodedView{
	spec:     &l2stream.DerivedSpec{Key: "ghrp:gs1", Words: 1, Columns: []int{8}},
	branches: true,
	newBuilder: func(cols []column) viewBuilder {
		return &ghrpSigBuilder{out: cols[0].u64}
	},
}

// ghrpSigBuilder runs the GHRP history over the stream's events,
// recording each access's signature.
type ghrpSigBuilder struct {
	h   policy.GHRPHistory
	out []uint64
}

// fill feeds a run of decoded events through the GHRP history.
//
//chirp:hotpath
func (b *ghrpSigBuilder) fill(evs []l2stream.Event, j int) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			b.out[j] = b.h.Signature(ev.PC)
			j++
		case l2stream.EventBranch:
			b.h.OnBranch(ev.PC, ev.Conditional, ev.Taken)
		}
	}
}

// viewFamily is one family's place in a block pass: its current block
// and where blocks come from — its sidecar (in), or else the pass's
// decode pass, through b, with out receiving each block for the
// family's new sidecar.
type viewFamily struct {
	d    *decodedView
	cols []column
	in   *l2stream.SidecarReader
	b    viewBuilder
	out  *l2stream.SidecarWriter
}

// viewBlock is one block of every family a pass reads: accesses
// [base, base+n) of the stream. fams[0] is the access view.
type viewBlock struct {
	base, n int
	final   bool // the block holds the stream's last access
	// warmIdx is the stream's warmup index as far as the pass knows it:
	// from the access view's sidecar at once, or from the decode pass
	// once the block holding the marker is read; -1 before that, or
	// when the stream has no marker. The walkers latch their warm stats
	// right before access warmIdx, or after the last when it equals the
	// access count.
	warmIdx int
	fams    []*viewFamily

	// The prefetch schedules: a stride prefetcher per prefetch distance
	// of the pass, each carrying its state from block to block as a
	// live one does from access to access, and one stride buffer that
	// holds the schedule of distance pf[scheduled] (schedule).
	pf        []*stridePrefetcher
	stride    []int64
	scheduled int
}

func (b *viewBlock) pc() []uint64  { return b.fams[0].cols[0].u64[:b.n] }
func (b *viewBlock) vpn() []uint64 { return b.fams[0].cols[1].u64[:b.n] }

// schedule returns the block's prefetch schedule for distance pf[i]:
// stride[j] is the stride access j prefetches along, 0 when it
// prefetches nothing. The walkers walk a block one distance at a time,
// so one buffer serves every distance, and each distance's prefetcher
// steps through every block once.
func (b *viewBlock) schedule(i int) []int64 {
	if b.scheduled != i {
		pf, vpns := b.pf[i], b.vpn()
		for j, pc := range b.pc() {
			b.stride[j] = pf.step(pc, vpns[j])
		}
		b.scheduled = i
	}
	return b.stride[:b.n]
}

// blockPass reads the access view, plus any signature families, of one
// stream one block at a time, and builds each block's prefetch
// schedules on demand. Families with a sidecar read their blocks from
// it; the rest share one decode pass, started with the first block. A
// pass holds one block of each family at a time.
type blockPass struct {
	s   *l2stream.Stream
	n   int // the stream's access count
	blk viewBlock

	// The decode pass, once a family needs it: the decoder, whether it
	// skips branch events, and its decoded events not yet consumed,
	// evs[evPos:evLen].
	dec          *l2stream.Decoder
	accessesOnly bool
	evs          []l2stream.Event
	evPos, evLen int
}

// newBlockPass prepares a pass over s that reads the access view and
// the families ds (the access view among them is ignored) and can
// build a prefetch schedule for each distance in dists.
func newBlockPass(s *l2stream.Stream, ds []*decodedView, dists []int) *blockPass {
	p := &blockPass{s: s, n: int(s.Accesses())}
	size := max(1, min(blockAccesses, p.n))
	p.blk.warmIdx = -1
	for _, d := range append([]*decodedView{accessViewD}, ds...) {
		if d == accessViewD && len(p.blk.fams) > 0 {
			continue
		}
		f := &viewFamily{d: d, cols: make([]column, len(d.spec.Columns))}
		for i, w := range d.spec.Columns {
			if w == 4 {
				f.cols[i].u32 = make([]uint32, size)
			} else {
				f.cols[i].u64 = make([]uint64, size)
			}
		}
		p.blk.fams = append(p.blk.fams, f)
	}
	for _, pd := range dists {
		p.blk.pf = append(p.blk.pf, newStridePrefetcher(pd))
	}
	if len(dists) > 0 {
		p.blk.stride = make([]int64, size)
	}
	return p
}

// run reads the stream block by block and hands each block to walk. It
// returns the first error of a read, of the decode pass or of walk;
// every row walk produced is good only when run returns nil. A
// family's sidecar that fails before the first block is walked falls
// back to the decode pass; one that fails later ends the pass with
// errViewCorrupt. The decode pass's sidecars are renamed into place
// only once it has read the whole stream and checked its checksum;
// an error or a panic leaves none of them behind.
func (p *blockPass) run(walk func(*viewBlock) error) error {
	defer p.close()
	p.open()
	b := &p.blk
	size := len(b.fams[0].cols[0].u64)
	for b.base = 0; ; b.base += size {
		b.n = min(size, p.n-b.base)
		b.final = b.base+b.n >= p.n
		if err := p.fill(); err != nil {
			return err
		}
		b.scheduled = -1
		if err := walk(b); err != nil {
			return err
		}
		if b.final {
			return nil
		}
	}
}

// open opens every family's sidecar, keeping the ones whose words agree
// with the stream.
func (p *blockPass) open() {
	for i, f := range p.blk.fams {
		if f.in = p.s.OpenSidecar(f.d.spec); f.in == nil {
			continue
		}
		w := f.in.Words()
		ok := w[0] == uint64(p.n)
		if i == 0 {
			warm := int64(w[1])
			if ok = ok && warm >= -1 && warm <= int64(p.n); ok {
				p.blk.warmIdx = int(warm)
			}
		}
		if !ok {
			f.in.Reject()
			f.in = nil
		}
	}
}

// fill reads the current block of every family.
func (p *blockPass) fill() error {
	b := &p.blk
	decoding := p.dec != nil
	for i, f := range b.fams {
		if f.in == nil {
			decoding = true
			continue
		}
		if readBlock(f, b.n) {
			continue
		}
		f.in = nil
		if b.base > 0 {
			return fmt.Errorf("%w: %s", errViewCorrupt, f.d.spec.Key)
		}
		if i == 0 {
			b.warmIdx = -1
		}
		decoding = true
	}
	if !decoding {
		return nil
	}
	if p.dec == nil {
		p.startDecode()
	}
	if err := p.decode(); err != nil {
		return err
	}
	for _, f := range b.fams {
		if f.out == nil {
			continue
		}
		for i, c := range f.cols {
			if c.u32 != nil {
				f.out.U32s(i, c.u32[:b.n])
			} else {
				f.out.U64s(i, c.u64[:b.n])
			}
		}
		if b.final {
			words := []uint64{uint64(p.n)}
			if f == b.fams[0] {
				words = append(words, uint64(int64(b.warmIdx)))
			}
			f.out.Commit(words)
			f.out = nil
		}
	}
	return nil
}

// readBlock reads family f's next n values of every column from its
// sidecar.
func readBlock(f *viewFamily, n int) bool {
	for i, c := range f.cols {
		var ok bool
		if c.u32 != nil {
			ok = f.in.U32s(i, c.u32[:n])
		} else {
			ok = f.in.U64s(i, c.u64[:n])
		}
		if !ok {
			return false
		}
	}
	return true
}

// startDecode starts the decode pass for every family without a
// sidecar, each with its builder and, when the stream belongs to a
// store, its new sidecar.
func (p *blockPass) startDecode() {
	built := 0
	p.accessesOnly = true
	for _, f := range p.blk.fams {
		if f.in != nil {
			continue
		}
		f.b = f.d.newBuilder(f.cols)
		f.out = p.s.CreateSidecar(f.d.spec)
		p.accessesOnly = p.accessesOnly && !f.d.branches
		built++
	}
	p.dec = p.s.DecodeViews(built)
	p.evs = make([]l2stream.Event, l2stream.DecodeBlockSize)
}

// decode fills the decoding families' current block: it hands the
// builders every event up to the access after the block's last, and —
// for the last block — every event to the end of the stream, whose
// checksum the decoder then checks.
func (p *blockPass) decode() error {
	b := &p.blk
	j := 0 // accesses of the block decoded so far
	for {
		if p.evPos == p.evLen {
			if p.accessesOnly {
				p.evLen = p.dec.NextAccessBlock(p.evs)
			} else {
				p.evLen = p.dec.NextBlock(p.evs)
			}
			p.evPos = 0
			if p.evLen == 0 {
				break
			}
		}
		evs := p.evs[p.evPos:p.evLen]
		k, acc, warm := cutBlock(evs, b.n-j)
		if warm >= 0 && b.fams[0].in == nil {
			b.warmIdx = b.base + j + warm
		}
		for _, f := range b.fams {
			if f.b != nil {
				f.b.fill(evs[:k], j)
			}
		}
		j += acc
		p.evPos += k
		if k < len(evs) {
			break // evs[k] is the next block's first access
		}
	}
	if err := p.dec.Err(); err != nil {
		return err
	}
	if p.evLen > 0 && b.final {
		return fmt.Errorf("sim: the stream decoded more accesses than the %d it reports", p.n)
	}
	if j < b.n {
		return fmt.Errorf("sim: the stream decoded %d accesses, it reports %d", b.base+j, p.n)
	}
	return nil
}

// cutBlock returns how many of evs belong to a block with room
// accesses left to fill: every event before the access that would
// exceed it. acc counts the accesses among them, and warm is the
// number of them that precede the warmup marker, or -1 when the marker
// is not among them.
//
//chirp:hotpath
func cutBlock(evs []l2stream.Event, room int) (k, acc, warm int) {
	warm = -1
	for k = range evs {
		switch evs[k].Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			if acc == room {
				return k, acc, warm
			}
			acc++
		case l2stream.EventWarmup:
			warm = acc
		}
	}
	return len(evs), acc, warm
}

// close releases what an unfinished pass holds: it closes the sidecars
// still being read and removes the ones still being written.
func (p *blockPass) close() {
	for _, f := range p.blk.fams {
		if f.in != nil {
			f.in.Close()
		}
		if f.out != nil {
			f.out.Abort()
		}
	}
}

// streamVPNs returns the stream's whole demand-access VPN column, for
// the OPT oracle, through a block pass over the access view. A sidecar
// that fails in mid-pass is gone by then, so the one retry decodes the
// stream.
func streamVPNs(s *l2stream.Stream) ([]uint64, error) {
	var vpns []uint64
	collect := func(b *viewBlock) error {
		vpns = append(vpns, b.vpn()...)
		return nil
	}
	err := errViewCorrupt
	for try := 0; try < 2 && errors.Is(err, errViewCorrupt); try++ {
		vpns = make([]uint64, 0, s.Accesses())
		err = newBlockPass(s, nil, nil).run(collect)
	}
	if err != nil {
		return nil, err
	}
	return vpns, nil
}
