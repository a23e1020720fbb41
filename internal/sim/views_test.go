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
// blocks into whole views: the access columns with the schedule, and
// each family's column, indexed like ds.
func materialize(s *l2stream.Stream, ds []*decodedView, pd int) (*replayView, []any, error) {
	var dists []int
	rv := &replayView{}
	if pd > 0 {
		dists = []int{pd}
		rv.pfOff = []uint32{0}
	}
	p := newBlockPass(s, ds, dists)
	cols := make([]any, len(ds))
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
		for i, f := range b.fams {
			if f.col.u32 != nil {
				got, _ := cols[i].([]uint32)
				cols[i] = append(got, f.col.u32[:b.n]...)
			} else {
				got, _ := cols[i].([]uint64)
				cols[i] = append(got, f.col.u64[:b.n]...)
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

// decodedViews returns the signature views ds whole, each as its
// column, through one block pass. The pass reads each from its
// sidecar, or builds it in its decode pass, which writes the sidecar
// when the stream has a store.
func decodedViews(s *l2stream.Stream, ds []*decodedView) ([]any, error) {
	_, cols, err := materialize(s, ds, 0)
	return cols, err
}

// accessViewFor returns the stream's whole access view, from a block
// pass that reads nothing else.
func accessViewFor(s *l2stream.Stream) (*accessView, error) {
	rv, _, err := materialize(s, nil, 0)
	if err != nil {
		return nil, err
	}
	return &rv.accessView, nil
}

// viewsFor returns whole every view a replay of policies under cfg
// reads, from one block pass laid out as walkOnce lays it out.
func viewsFor(s *l2stream.Stream, policies []tlb.Policy, cfg TLBOnlyConfig) (*replayViews, error) {
	var ds []*decodedView
	fam := make([]int, len(policies)) // index into ds of each CHiRP's family, -1 for the rest
	byKey := map[string]int{}
	ghrp := false
	for j, p := range policies {
		fam[j] = -1
		switch pp := p.(type) {
		case *core.CHiRP:
			key := chirpSigsKey(pp.Config())
			if _, ok := byKey[key]; !ok {
				byKey[key] = len(ds)
				ds = append(ds, chirpSigsDecl(pp.Config(), key))
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
		if fam[j] >= 0 {
			out.chirpSigs[j], _ = cols[fam[j]].([]uint32)
		}
		if _, ok := p.(*policy.GHRP); ok {
			out.ghrpSigs, _ = cols[len(ds)-1].([]uint64)
		}
	}
	return out, nil
}
