package sim

import (
	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
)

// accessView is the whole access view a test compares: the pc and vpn
// columns and the warmup index (-1 without a marker).
type accessView struct {
	pc, vpn []uint64
	warmIdx int
}

// replayView is an access view plus the prefetch schedule of one
// distance, expanded into a CSR of fill candidates over the whole
// stream (pfOff nil without prefetching): access i's are
// pfVPN[pfOff[i]:pfOff[i+1]].
type replayView struct {
	accessView
	pfOff []uint32
	pfVPN []uint64
}

// replayViews is every view a replay of some policies reads, whole.
type replayViews struct {
	rv        *replayView
	chirpSigs [][]uint32 // per policy: a CHiRP's signature sequence, nil for the rest
	ghrpSigs  []uint64   // nil when no policy is GHRP
}

// materialize runs one block pass over s that reads ds and the
// prefetch schedule of distance pd (none when pd is 0), and joins its
// blocks into whole views: the access view with the schedule, and
// each of the pass's families' columns, indexed like the pass's
// families (0 being the access view's, left nil).
func materialize(s *l2stream.Stream, ds []*decodedView, pd int) (*replayView, []any, error) {
	var dists []int
	rv := &replayView{}
	if pd > 0 {
		dists = []int{pd}
		rv.pfOff = []uint32{0}
	}
	p := newBlockPass(s, ds, dists)
	cols := make([]any, len(p.blk.fams))
	err := p.run(func(b *viewBlock) error {
		rv.pc = append(rv.pc, b.pc()...)
		rv.vpn = append(rv.vpn, b.vpn()...)
		if pd > 0 {
			for i, st := range b.schedule(0) {
				if pv := b.vpn()[i]; st != 0 {
					for k := 0; k < pd; k++ {
						pv += uint64(st)
						rv.pfVPN = append(rv.pfVPN, pv)
					}
				}
				rv.pfOff = append(rv.pfOff, uint32(len(rv.pfVPN)))
			}
		}
		for i, f := range b.fams[1:] {
			if c := f.cols[0]; c.u32 != nil {
				got, _ := cols[i+1].([]uint32)
				cols[i+1] = append(got, c.u32[:b.n]...)
			} else {
				got, _ := cols[i+1].([]uint64)
				cols[i+1] = append(got, c.u64[:b.n]...)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rv.warmIdx = p.blk.warmIdx
	return rv, cols, nil
}

// decodedViews returns the views ds whole, through one block pass:
// the access view as an *accessView, each signature view as its
// column. The pass reads each from its sidecar, or builds it in one
// decode pass that writes the sidecar when the stream has a store.
func decodedViews(s *l2stream.Stream, ds []*decodedView) ([]any, error) {
	rv, cols, err := materialize(s, ds, 0)
	if err != nil {
		return nil, err
	}
	out := make([]any, len(ds))
	k := 1
	for i, d := range ds {
		if d == accessViewD {
			out[i] = &rv.accessView
			continue
		}
		out[i] = cols[k]
		k++
	}
	return out, nil
}

// accessViewFor returns the stream's whole access view.
func accessViewFor(s *l2stream.Stream) (*accessView, error) {
	vs, err := decodedViews(s, []*decodedView{accessViewD})
	if err != nil {
		return nil, err
	}
	return vs[0].(*accessView), nil
}

// viewsFor returns whole every view a replay of policies under cfg
// reads, from one block pass laid out as walkOnce lays it out.
func viewsFor(s *l2stream.Stream, policies []tlb.Policy, cfg TLBOnlyConfig) (*replayViews, error) {
	var ds []*decodedView
	fam := make([]int, len(policies))
	byKey := map[string]int{}
	ghrp := false
	for j, p := range policies {
		switch pp := p.(type) {
		case *core.CHiRP:
			key := chirpSigsKey(pp.Config())
			if byKey[key] == 0 {
				ds = append(ds, chirpSigsDecl(pp.Config(), key))
				byKey[key] = len(ds)
			}
			fam[j] = byKey[key]
		case *policy.GHRP:
			ghrp = true
		}
	}
	if ghrp {
		ds = append(ds, ghrpSigsD)
	}
	rv, cols, err := materialize(s, ds, cfg.PrefetchDistance)
	if err != nil {
		return nil, err
	}
	out := &replayViews{rv: rv, chirpSigs: make([][]uint32, len(policies))}
	for j, p := range policies {
		if fam[j] > 0 {
			out.chirpSigs[j], _ = cols[fam[j]].([]uint32)
		}
		if _, ok := p.(*policy.GHRP); ok {
			out.ghrpSigs, _ = cols[len(ds)].([]uint64)
		}
	}
	return out, nil
}
