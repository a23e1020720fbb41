package branch

import (
	"fmt"
	"testing"

	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
)

// lruBTB is the reference BTB: a tlb.TLB under policy.LRU (the direct
// reference path's L1 model, written independently of lru.Sets) keyed
// by pc>>2 holds the resident branches, and a map their last targets.
type lruBTB struct {
	resident *tlb.TLB
	targets  map[uint64]uint64
}

func newLRUBTB(t *testing.T, entries, ways int) *lruBTB {
	t.Helper()
	resident, err := tlb.New(tlb.Config{Name: "BTB", Entries: entries, Ways: ways, PageShift: 12}, policy.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(resident.Release)
	return &lruBTB{resident: resident, targets: map[uint64]uint64{}}
}

func (b *lruBTB) Lookup(pc uint64) (uint64, bool) {
	a := tlb.Access{VPN: pc >> 2}
	if _, hit := b.resident.Lookup(&a); !hit {
		return 0, false
	}
	return b.targets[pc>>2], true
}

func (b *lruBTB) Update(pc, target uint64) {
	a := tlb.Access{VPN: pc >> 2}
	if _, hit := b.resident.Lookup(&a); !hit {
		b.resident.Insert(&a, 0)
	}
	b.targets[pc>>2] = target
}

// refPerceptron is the test-only reference model of the hashed
// perceptron: one weight slice per table, the history segment and
// index recomputed from the configuration on every prediction.
type refPerceptron struct {
	cfg     PerceptronConfig
	weights [][]int16
	history uint64
	lastIdx []int
	lastSum int
}

func newRefPerceptron(cfg PerceptronConfig) *refPerceptron {
	p := &refPerceptron{cfg: cfg, weights: make([][]int16, cfg.Tables), lastIdx: make([]int, cfg.Tables)}
	for i := range p.weights {
		p.weights[i] = make([]int16, cfg.TableEntries)
	}
	return p
}

func (p *refPerceptron) Predict(pc uint64) bool {
	seg := p.cfg.HistoryBits / p.cfg.Tables
	if seg == 0 {
		seg = 1
	}
	p.lastSum = 0
	for t := range p.weights {
		h := (p.history >> uint(t*seg)) & (1<<uint(seg) - 1)
		x := pc>>2 ^ h*0x9e3779b97f4a7c15 ^ uint64(t)<<57
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 32
		p.lastIdx[t] = int(uint32(x) & uint32(p.cfg.TableEntries-1))
		p.lastSum += int(p.weights[t][p.lastIdx[t]])
	}
	return p.lastSum >= 0
}

func (p *refPerceptron) Train(taken bool) bool {
	correct := (p.lastSum >= 0) == taken
	if !correct || abs(p.lastSum) <= p.cfg.ThresholdScale*p.cfg.Tables {
		for t, idx := range p.lastIdx {
			w := &p.weights[t][idx]
			switch {
			case taken && int(*w) < p.cfg.WeightMax:
				*w++
			case !taken && int(*w) > -p.cfg.WeightMax:
				*w--
			}
		}
	}
	p.history <<= 1
	if taken {
		p.history |= 1
	}
	return correct
}

// splitmix is a deterministic 64-bit generator for the oracle streams.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// TestBTBMatchesAgeLRUOracle drives BTB and the tlb.TLB reference with
// the same seeded operation streams — random PCs over a footprint
// larger than the BTB, and set-thrashing runs of ways+k branches that
// share one set — and requires the same hit and target on every
// lookup and the same hit ratio.
func TestBTBMatchesAgeLRUOracle(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{
		{64, 1}, {64, 2}, {256, 8}, {256, 16}, {64, 64}, {4096, 4},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed=%d", g.entries, g.ways, seed), func(t *testing.T) {
				b, ref := NewBTB(g.entries, g.ways), newLRUBTB(t, g.entries, g.ways)
				rng := splitmix(seed)
				sets := uint64(g.entries / g.ways)
				var pcs []uint64
				for len(pcs) < 40_000 {
					if rng.next()%2 == 0 {
						for i := 0; i < 32; i++ {
							pcs = append(pcs, rng.next()%uint64(4*g.entries)<<2)
						}
						continue
					}
					set := rng.next() % sets
					k := uint64(g.ways) + rng.next()%3
					for rep := 0; rep < 4; rep++ {
						for i := uint64(0); i < k; i++ {
							pcs = append(pcs, (i*sets+set)<<2)
						}
					}
				}
				lookups, hits := 0, 0
				for i, pc := range pcs {
					got, gotHit := b.Lookup(pc)
					want, wantHit := ref.Lookup(pc)
					lookups++
					if gotHit != wantHit || got != want {
						t.Fatalf("lookup %d (pc %#x) = (%#x, %v), oracle (%#x, %v)", i, pc, got, gotHit, want, wantHit)
					}
					if wantHit {
						hits++
					}
					// Most branches update (taken, or unconditional);
					// the target changes now and then, as an indirect
					// jump's would.
					if rng.next()%8 != 0 {
						target := pc + 0x100 + rng.next()%4*0x40
						b.Update(pc, target)
						ref.Update(pc, target)
					}
				}
				if got, want := b.HitRatio(), float64(hits)/float64(lookups); got != want {
					t.Errorf("hit ratio %v, oracle %v", got, want)
				}
			})
		}
	}
}

// TestPerceptronMatchesReference drives Perceptron and the
// table-of-slices reference with the same seeded branch stream —
// biased, history-correlated and random branches at aliasing PCs —
// under several geometries, including one where a table's history
// segment spans all 64 bits, and requires identical predictions,
// training outcomes and counters.
func TestPerceptronMatchesReference(t *testing.T) {
	for _, cfg := range []PerceptronConfig{
		DefaultPerceptronConfig(),
		{Tables: 1, TableEntries: 64, HistoryBits: 64, WeightMax: 31, ThresholdScale: 5},
		{Tables: 16, TableEntries: 128, HistoryBits: 8, WeightMax: 7, ThresholdScale: 2},
		{Tables: 3, TableEntries: 256, HistoryBits: 40, WeightMax: 127, ThresholdScale: 18},
	} {
		t.Run(fmt.Sprintf("%dx%d/h%d", cfg.Tables, cfg.TableEntries, cfg.HistoryBits), func(t *testing.T) {
			p, ref := NewPerceptron(cfg), newRefPerceptron(cfg)
			rng := splitmix(uint64(cfg.Tables*1000 + cfg.TableEntries))
			var last bool
			for i := 0; i < 50_000; i++ {
				pc := 0x400000 + rng.next()%512<<2
				var taken bool
				switch pc >> 2 % 3 {
				case 0:
					taken = rng.next()%16 != 0
				case 1:
					taken = last
				default:
					taken = rng.next()%2 == 0
				}
				last = taken
				if got, want := p.Predict(pc), ref.Predict(pc); got != want {
					t.Fatalf("branch %d (pc %#x): predicted %v, reference %v", i, pc, got, want)
				}
				if got, want := p.Train(taken), ref.Train(taken); got != want {
					t.Fatalf("branch %d (pc %#x): trained correct=%v, reference %v", i, pc, got, want)
				}
			}
			preds, miss := p.Stats()
			if preds != 50_000 {
				t.Errorf("predictions = %d, want 50000", preds)
			}
			if miss == 0 || miss == preds {
				t.Errorf("mispredicts = %d of %d: the stream does not exercise both outcomes", miss, preds)
			}
		})
	}
}
