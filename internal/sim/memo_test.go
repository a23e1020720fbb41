package sim

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/workloads"
)

// keyedFactories is every policy the figures build: each registered
// policy, the CHiRP variants of Fig. 2 (path-only and combined at each
// history length), Fig. 6 (the ablation ladder) and Fig. 9 (the seven
// table budgets, all named "chirp"), and a second SHiP table size.
func keyedFactories() []NamedFactory {
	var fs []NamedFactory
	for _, n := range PolicyNames() {
		fs = append(fs, NamedFactory{Name: n, New: builtinFactories()[n]})
	}
	variant := func(name string, mut func(*core.Config)) {
		c := core.DefaultConfig()
		mut(&c)
		fs = append(fs, NamedFactory{Name: name, New: CHiRPFactory(c)})
	}
	for _, length := range []int{4, 8, 12, 16, 24, 32, 40} {
		variant(fmt.Sprintf("fig2/path-only-%d", length), func(c *core.Config) {
			c.History.PathLength = length
			c.UseCondHistory, c.UseIndirectHistory = false, false
		})
		variant(fmt.Sprintf("fig2/combined-%d", length), func(c *core.Config) { c.History.PathLength = length })
	}
	variant("fig6/chirp-pc", func(c *core.Config) {
		c.UsePathHistory, c.UseCondHistory, c.UseIndirectHistory = false, false, false
	})
	variant("fig6/chirp-path", func(c *core.Config) { c.UseCondHistory, c.UseIndirectHistory = false, false })
	variant("fig6/chirp-path-cond", func(c *core.Config) {
		c.UseIndirectHistory = false
		c.History.PathLeadingZeros = false
	})
	variant("fig6/chirp-lz", func(c *core.Config) { c.UseIndirectHistory = false })
	for _, bytes := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
		variant(fmt.Sprintf("fig9/%dB", bytes), func(c *core.Config) { c.TableEntries = bytes * 8 / 2 })
	}
	return append(fs, NamedFactory{Name: "ship-1024", New: func() tlb.Policy { return policy.NewSHiP(1024) }})
}

// TestPolicyKeyEqualForFreshInstances: two fresh instances from one
// factory start in one state, so every policy the figures build gets
// a key, and the same key twice.
func TestPolicyKeyEqualForFreshInstances(t *testing.T) {
	for _, f := range keyedFactories() {
		k1, ok1 := policyKey(f.New())
		k2, ok2 := policyKey(f.New())
		if !ok1 || !ok2 {
			t.Errorf("%s: no key for a fresh instance", f.Name)
			continue
		}
		if k1 != k2 {
			t.Errorf("%s: two fresh instances keyed %x and %x", f.Name, k1, k2)
		}
	}
}

// TestPolicyKeyDistinctStates: keys differ exactly where the fresh
// states differ (reflect.DeepEqual), across every pair of the figures'
// policies — fig9's seven same-named budgets and two SHiP table sizes
// included — and agree where they do not (fig9's 1 KB point is the
// default CHiRP).
func TestPolicyKeyDistinctStates(t *testing.T) {
	fs := keyedFactories()
	pols := make([]tlb.Policy, len(fs))
	keys := make([]string, len(fs))
	for i, f := range fs {
		pols[i] = f.New()
		keys[i], _ = policyKey(pols[i])
	}
	for i := range fs {
		for j := i + 1; j < len(fs); j++ {
			same := reflect.DeepEqual(pols[i], pols[j])
			if same != (keys[i] == keys[j]) {
				t.Errorf("%s vs %s: DeepEqual %v but keys equal %v", fs[i].Name, fs[j].Name, same, keys[i] == keys[j])
			}
		}
	}
}

// statePolicy is LRU plus state the registered policies start
// without: table contents, a map, and pointers that may be shared or
// cyclic.
type statePolicy struct {
	*policy.LRU
	bytes []uint8
	words []int16
	pairs [][2]uint16
	m     map[uint64]uint8
	a, b  *[4]uint8
	self  *statePolicy
}

// TestPolicyKeyEncodesState: each change to a statePolicy's state —
// one table entry, nil versus empty, shared versus equal pointers —
// changes its key; a cycle terminates; a non-empty map gets no key.
func TestPolicyKeyEncodesState(t *testing.T) {
	fresh := func() *statePolicy {
		return &statePolicy{
			LRU:   policy.NewLRU(),
			bytes: []uint8{1, 2, 3},
			words: []int16{4, 5, 6},
			pairs: [][2]uint16{{7, 8}},
			m:     map[uint64]uint8{},
			a:     &[4]uint8{1},
			b:     &[4]uint8{1},
		}
	}
	base, ok := policyKey(fresh())
	if again, _ := policyKey(fresh()); !ok || again != base {
		t.Fatalf("fresh statePolicy keyed %x (ok %v), then %x", base, ok, again)
	}
	for name, mut := range map[string]func(*statePolicy){
		"byte entry":      func(p *statePolicy) { p.bytes[1] = 9 },
		"int16 entry":     func(p *statePolicy) { p.words[2] = -6 },
		"array entry":     func(p *statePolicy) { p.pairs[0][1] = 9 },
		"table length":    func(p *statePolicy) { p.words = p.words[:2] },
		"nil map":         func(p *statePolicy) { p.m = nil },
		"shared pointer":  func(p *statePolicy) { p.b = p.a },
		"cycle":           func(p *statePolicy) { p.self = p },
		"embedded policy": func(p *statePolicy) { p.LRU = nil },
	} {
		p := fresh()
		mut(p)
		k, ok := policyKey(p)
		if !ok || k == base {
			t.Errorf("%s: key %x (ok %v), want a key distinct from the fresh state's", name, k, ok)
		}
	}
	p := fresh()
	p.m[1] = 1
	if _, ok := policyKey(p); ok {
		t.Error("a non-empty map got a key")
	}
}

// spyPolicy is LRU with a func field, which policyKey cannot encode:
// it counts how often a TLB attaches it, that is, how often it walks.
type spyPolicy struct {
	*policy.LRU
	attached func()
}

func (p spyPolicy) Attach(sets, ways int) {
	p.attached()
	p.LRU.Attach(sets, ways)
}

// TestRunMultiMemoSkipsUnkeyed: a policy with a func field gets no key
// and walks every time it appears in a replay of a stream, beside
// keyed siblings whose repeats the replay serves from its memo.
func TestRunMultiMemoSkipsUnkeyed(t *testing.T) {
	attaches := 0
	spy := func() tlb.Policy { return spyPolicy{LRU: policy.NewLRU(), attached: func() { attaches++ }} }
	if _, ok := policyKey(spy()); ok {
		t.Fatal("a policy with a func field got a key")
	}
	spec := RunSpec{Workload: workloads.ByName("db-000"), Config: DefaultTLBOnlyConfig(testInstr), Cache: l2stream.NewCache(0)}
	stream := streamOf(t, spec)
	once := []PolicyFactory{mustFactoryFor(t, "lru"), spy, mustFactoryFor(t, "srrip")}
	hits, misses := obsMemoHits.Value(), obsMemoMisses.Value()
	rs := replayFresh(t, stream, slices.Concat(once, once), spec.Config)
	if attaches != 2 {
		t.Errorf("unkeyed policy walked %d times in one call that holds it twice, want 2", attaches)
	}
	if d := obsMemoHits.Value() - hits; d != 2 {
		t.Errorf("memo hits moved by %d, want 2 (the repeated keyed policies)", d)
	}
	if d := obsMemoMisses.Value() - misses; d != 4 {
		t.Errorf("memo misses moved by %d, want 4 (three cells, then the spy again)", d)
	}
	if !reflect.DeepEqual(rs[:3], rs[3:]) || rs[1] != rs[0] {
		t.Errorf("results differ: first copy %+v, second %+v (the spy is LRU)", rs[:3], rs[3:])
	}
}

// streamOf fetches spec's stream from spec.Cache, for a test that
// replays one stream several times.
func streamOf(t *testing.T, spec RunSpec) *l2stream.Stream {
	t.Helper()
	stream, err := StreamFor(spec.Cache, spec.Workload.Name, spec.Workload.SpecHash, spec.Config, spec.open)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// replayFresh is RunMulti's memoized replay over a stream the caller
// holds: fresh policies from factories, replayed under cfg.
func replayFresh(t *testing.T, stream *l2stream.Stream, factories []PolicyFactory, cfg TLBOnlyConfig) []TLBOnlyResult {
	t.Helper()
	ps := make([]tlb.Policy, len(factories))
	for i, f := range factories {
		ps[i] = f()
	}
	rs, err := replayCells(stream, cellsOf(cfg, ps, nil))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestRunMultiMemoMatchesDirect: a replay serves every cell whose key
// an earlier cell holds from that cell's walk — the repeats publishing
// no TLB counters, since they simulated nothing — and equals the
// nil-cache direct path. Each prefetch distance is its own
// configuration, replayed in its own call.
func TestRunMultiMemoMatchesDirect(t *testing.T) {
	fs := keyedFactories()
	factories := make([]PolicyFactory, len(fs))
	for i, f := range fs {
		factories[i] = f.New
	}
	distinct := map[string]bool{}
	for _, f := range fs {
		k, _ := policyKey(f.New())
		distinct[k] = true
	}
	ctx := context.Background()
	spec := RunSpec{Workload: workloads.ByName("web-001"), Config: DefaultTLBOnlyConfig(testInstr), Cache: l2stream.NewCache(0)}
	stream := streamOf(t, spec) // the prefetch distance is not part of the capture
	lookups := obs.Default.CounterVec("chirp_tlb_lookups_total", "", "level").With("L2 TLB")
	for _, pd := range []int{0, 4} {
		cfg := DefaultTLBOnlyConfig(testInstr)
		cfg.PrefetchDistance = pd
		hits, l2 := obsMemoHits.Value(), lookups.Value()
		once := replayFresh(t, stream, factories, cfg)
		if d, want := obsMemoHits.Value()-hits, uint64(len(fs)-len(distinct)); d != want {
			t.Errorf("pd=%d: one copy hit the memo %d times, want %d (the duplicate keys)", pd, d, want)
		}
		onceL2 := lookups.Value() - l2
		hits, l2 = obsMemoHits.Value(), lookups.Value()
		twice := replayFresh(t, stream, slices.Concat(factories, factories), cfg)
		if d, want := obsMemoHits.Value()-hits, uint64(2*len(fs)-len(distinct)); d != want {
			t.Errorf("pd=%d: two copies hit the memo %d times, want %d (the duplicate keys, then the whole second copy)", pd, d, want)
		}
		if d := lookups.Value() - l2; d != onceL2 {
			t.Errorf("pd=%d: two copies published %d L2 lookups, want one copy's %d", pd, d, onceL2)
		}
		direct, err := RunMulti(ctx, RunSpec{Workload: spec.Workload, Config: cfg}, factories)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fs {
			if once[i] != direct[i] || twice[i] != direct[i] || twice[len(fs)+i] != direct[i] {
				t.Errorf("pd=%d %s: direct %+v, one copy %+v, two copies %+v and %+v", pd, f.Name, direct[i], once[i], twice[i], twice[len(fs)+i])
			}
		}
	}
}
