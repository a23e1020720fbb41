// Derived replay views: the stream-pure precomputations the replay
// walkers are driven from. Everything here is a pure function of one
// captured l2stream.Stream plus a small configuration key, never of
// TLB or policy state:
//
//   - access columns: the dense access sequence as struct-of-arrays
//     (PC and VPN) and the warmup boundary's position in it. They hold
//     no set index, so every L2 geometry shares them; the walker's
//     tlb.Lookup masks the VPN itself. They are the decode pass's own
//     output, never persisted: decoding them costs about what reading
//     and checksumming 16 bytes per access from a sidecar would.
//   - prefetch schedule: the stride prefetcher's decision per access,
//     as the stride to prefetch along (0 for none): a prefetching
//     access's fill candidates are the next PrefetchDistance pages
//     along it. Stride decisions depend only on the demand stream, so
//     each block's schedule is computed once per prefetch distance
//     from the access columns and shared by every walker at that
//     distance; only the per-policy Contains gate runs at replay time.
//     The schedule is never persisted.
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
// The two signature sequences are the persisted families: the history
// folds are the expensive stream-pure work of a replay. No view is
// ever whole in memory. A block pass (blockPass) reads a replay's
// views in blocks of blockAccesses accesses, through one decode pass
// over the events that yields the access columns and builds every
// signature family without a sidecar, over access events only when
// none of them reads branches. A family with a sidecar in the stream's
// -capturedir store reads its blocks from it; the decode pass writes
// each block of each family it builds into the family's new sidecar,
// so warm sweeps skip the signature recomputation and decode access
// events only.
package sim

import (
	"errors"
	"fmt"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
)

// viewBlockSize is how many accesses a block pass reads per block. It
// keeps a pass's buffers to a few MiB however long the stream: the
// access columns, every family's block, the prefetch schedules, and
// the decoder's window. Every stream of the paper's 3 M-instruction
// runs stays one block, with buffers sized to its access count.
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

// column is one block of a family's column: 8-byte values in u64 or
// 4-byte values in u32, as the family's DerivedSpec lays it out.
type column struct {
	u64 []uint64
	u32 []uint32
}

// viewBuilder is a signature family's state in a decode pass. fill
// consumes a run of decoded events whose accesses go to the family's
// block column from index j on.
type viewBuilder interface {
	fill(evs []l2stream.Event, j int)
}

// decodedView declares one signature family: its DerivedSpec, whether
// its builder reads branch events, and the builder's constructor,
// which receives the block column the builder fills.
type decodedView struct {
	spec       *l2stream.DerivedSpec
	branches   bool
	newBuilder func(col column) viewBuilder
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
		spec:     &l2stream.DerivedSpec{Key: key, Words: 1, Width: 4},
		branches: usesBranchHistory(cfg),
		newBuilder: func(col column) viewBuilder {
			return &chirpSigBuilder{q: core.NewSigSequencer(cfg), out: col.u32}
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
	spec:     &l2stream.DerivedSpec{Key: "ghrp:gs1", Words: 1, Width: 8},
	branches: true,
	newBuilder: func(col column) viewBuilder {
		return &ghrpSigBuilder{out: col.u64}
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

// viewFamily is one signature family's place in a block pass: its
// current block and where blocks come from — its sidecar (in), or else
// the pass's decode pass, through b, with out receiving each block for
// the family's new sidecar.
type viewFamily struct {
	d   *decodedView
	col column
	in  *l2stream.SidecarReader
	b   viewBuilder
	out *l2stream.SidecarWriter
}

// viewBlock is one block of a pass: accesses [base, base+n) of the
// stream, their access columns, and the block of every signature
// family the pass reads.
type viewBlock struct {
	base, n int
	final   bool // the block holds the stream's last access
	// warmIdx is the stream's warmup index as far as the decode pass
	// knows it: -1 before the block holding the marker is read, or when
	// the stream has no marker. The walkers latch their warm stats
	// right before access warmIdx, or after the last when it equals the
	// access count.
	warmIdx   int
	pcs, vpns []uint64 // the access columns; the block's are [:n]
	fams      []*viewFamily

	// The prefetch schedules: a stride prefetcher per prefetch distance
	// of the pass, each carrying its state from block to block as a
	// live one does from access to access, and one stride buffer that
	// holds the schedule of distance pf[scheduled] (schedule).
	pf        []*stridePrefetcher
	stride    []int64
	scheduled int
}

func (b *viewBlock) pc() []uint64  { return b.pcs[:b.n] }
func (b *viewBlock) vpn() []uint64 { return b.vpns[:b.n] }

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

// blockPass reads the access columns, plus any signature families, of
// one stream one block at a time, and builds each block's prefetch
// schedules on demand. One decode pass yields the access columns and
// builds the families without a sidecar; the rest read their blocks
// from their sidecars. A pass holds one block of each at a time.
type blockPass struct {
	s   *l2stream.Stream
	n   int // the stream's access count
	blk viewBlock

	// The decode pass: the decoder, whether it skips branch events, and
	// its decoded events not yet consumed, evs[evPos:evLen].
	dec          *l2stream.Decoder
	accessesOnly bool
	evs          []l2stream.Event
	evPos, evLen int
}

// newBlockPass prepares a pass over s that reads the access columns
// and the signature families ds and can build a prefetch schedule for
// each distance in dists.
func newBlockPass(s *l2stream.Stream, ds []*decodedView, dists []int) *blockPass {
	p := &blockPass{s: s, n: int(s.Accesses())}
	size := max(1, min(blockAccesses, p.n))
	p.blk.warmIdx = -1
	p.blk.pcs, p.blk.vpns = make([]uint64, size), make([]uint64, size)
	for _, d := range ds {
		f := &viewFamily{d: d}
		if d.spec.Width == 4 {
			f.col.u32 = make([]uint32, size)
		} else {
			f.col.u64 = make([]uint64, size)
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
	size := len(b.pcs)
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

// open opens every family's sidecar, keeping the ones whose access
// count agrees with the stream.
func (p *blockPass) open() {
	for _, f := range p.blk.fams {
		if f.in = p.s.OpenSidecar(f.d.spec); f.in != nil && f.in.Words()[0] != uint64(p.n) {
			f.in.Reject()
			f.in = nil
		}
	}
}

// fill reads the current block: each family's from its sidecar, and
// the access columns and the other families' from the decode pass,
// which it starts with the first block.
func (p *blockPass) fill() error {
	b := &p.blk
	for _, f := range b.fams {
		if f.in == nil || readBlock(f, b.n) {
			continue
		}
		f.in = nil
		if b.base > 0 {
			return fmt.Errorf("%w: %s", errViewCorrupt, f.d.spec.Key)
		}
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
		if f.col.u32 != nil {
			f.out.U32s(f.col.u32[:b.n])
		} else {
			f.out.U64s(f.col.u64[:b.n])
		}
		if b.final {
			f.out.Commit([]uint64{uint64(p.n)})
			f.out = nil
		}
	}
	return nil
}

// readBlock reads family f's next n values from its sidecar.
func readBlock(f *viewFamily, n int) bool {
	if f.col.u32 != nil {
		return f.in.U32s(f.col.u32[:n])
	}
	return f.in.U64s(f.col.u64[:n])
}

// startDecode starts the decode pass, with a builder and, when the
// stream belongs to a store, a new sidecar for every family without a
// sidecar.
func (p *blockPass) startDecode() {
	built := 0
	p.accessesOnly = true
	for _, f := range p.blk.fams {
		if f.in != nil {
			continue
		}
		f.b = f.d.newBuilder(f.col)
		f.out = p.s.CreateSidecar(f.d.spec)
		p.accessesOnly = p.accessesOnly && !f.d.branches
		built++
	}
	p.dec = p.s.DecodeViews(built)
	p.evs = make([]l2stream.Event, l2stream.DecodeBlockSize)
}

// decode fills the block's access columns and the decoding families'
// blocks: it hands the builders every event up to the access after the
// block's last, and — for the last block — every event to the end of
// the stream, whose checksum the decoder then checks.
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
		k, acc, warm := cutBlock(evs, b.pcs[j:b.n], b.vpns[j:b.n])
		if warm >= 0 {
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

// cutBlock copies the accesses of evs into the access columns pcs and
// vpns until they are full, and returns how many of evs belong to
// them: every event before the access that would overflow them. acc
// counts the accesses among those events, and warm is the number of
// them that precede the warmup marker, or -1 when the marker is not
// among them.
//
//chirp:hotpath
func cutBlock(evs []l2stream.Event, pcs, vpns []uint64) (k, acc, warm int) {
	warm = -1
	vpns = vpns[:len(pcs)]
	for k = range evs {
		switch ev := &evs[k]; ev.Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			if acc == len(pcs) {
				return k, acc, warm
			}
			pcs[acc], vpns[acc] = ev.PC, ev.VPN
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
// the OPT oracle, through a block pass that reads the access columns
// alone.
func streamVPNs(s *l2stream.Stream) ([]uint64, error) {
	vpns := make([]uint64, 0, s.Accesses())
	err := newBlockPass(s, nil, nil).run(func(b *viewBlock) error {
		vpns = append(vpns, b.vpn()...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vpns, nil
}
