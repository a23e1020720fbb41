package sim

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
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
// and walks on every RunMulti call, beside keyed siblings that the
// second call serves from the memo.
func TestRunMultiMemoSkipsUnkeyed(t *testing.T) {
	attaches := 0
	spy := func() tlb.Policy { return spyPolicy{LRU: policy.NewLRU(), attached: func() { attaches++ }} }
	if _, ok := policyKey(spy()); ok {
		t.Fatal("a policy with a func field got a key")
	}
	cache := l2stream.NewCache(0)
	defer cache.Close()
	spec := RunSpec{Workload: workloads.ByName("db-000"), Config: DefaultTLBOnlyConfig(testInstr), Cache: cache}
	factories := []PolicyFactory{mustFactoryFor(t, "lru"), spy, mustFactoryFor(t, "srrip")}
	hits, misses := obsMemoHits.Value(), obsMemoMisses.Value()
	first, err := RunMulti(context.Background(), spec, factories)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunMulti(context.Background(), spec, factories)
	if err != nil {
		t.Fatal(err)
	}
	if attaches != 2 {
		t.Errorf("unkeyed policy walked %d times over two calls, want 2", attaches)
	}
	if d := obsMemoHits.Value() - hits; d != 2 {
		t.Errorf("memo hits moved by %d, want 2 (the keyed policies of the second call)", d)
	}
	if d := obsMemoMisses.Value() - misses; d != 4 {
		t.Errorf("memo misses moved by %d, want 4 (three cells, then the spy again)", d)
	}
	if !reflect.DeepEqual(first, second) || first[1] != first[0] {
		t.Errorf("results differ: first %+v, second %+v (the spy is LRU)", first, second)
	}
}

// TestRunMultiMemoMatchesDirect: a second RunMulti on one cache is
// served wholly from the memo — publishing no TLB counters, since it
// simulated nothing — and equals both the first call and the nil-cache
// direct path. Each prefetch distance is its own configuration, so it
// misses the memo once.
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
	cache := l2stream.NewCache(0)
	defer cache.Close()
	lookups := obs.Default.CounterVec("chirp_tlb_lookups_total", "", "level").With("L2 TLB")
	for _, pd := range []int{0, 4} {
		cfg := DefaultTLBOnlyConfig(testInstr)
		cfg.PrefetchDistance = pd
		spec := RunSpec{Workload: workloads.ByName("web-001"), Config: cfg, Cache: cache}
		hits := obsMemoHits.Value()
		first, err := RunMulti(ctx, spec, factories)
		if err != nil {
			t.Fatal(err)
		}
		if d, want := obsMemoHits.Value()-hits, uint64(len(fs)-len(distinct)); d != want {
			t.Errorf("pd=%d: first call hit the memo %d times, want %d (the duplicate keys)", pd, d, want)
		}
		hits, l2 := obsMemoHits.Value(), lookups.Value()
		second, err := RunMulti(ctx, spec, factories)
		if err != nil {
			t.Fatal(err)
		}
		if d := obsMemoHits.Value() - hits; d != uint64(len(fs)) {
			t.Errorf("pd=%d: second call hit the memo %d times, want %d", pd, d, len(fs))
		}
		if d := lookups.Value() - l2; d != 0 {
			t.Errorf("pd=%d: memo hits published %d L2 lookups, want 0", pd, d)
		}
		spec.Cache = nil
		direct, err := RunMulti(ctx, spec, factories)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fs {
			if first[i] != direct[i] || second[i] != direct[i] {
				t.Errorf("pd=%d %s: direct %+v, first %+v, second %+v", pd, f.Name, direct[i], first[i], second[i])
			}
		}
	}
}

// TestRunMultiMemoConcurrent: RunMulti calls racing on one stream
// share the memo's single-flight slots and all return the direct
// path's results.
func TestRunMultiMemoConcurrent(t *testing.T) {
	names := []string{"lru", "srrip", "ship", "chirp"}
	factories := make([]PolicyFactory, len(names))
	for i, n := range names {
		factories[i] = mustFactoryFor(t, n)
	}
	spec := RunSpec{Workload: workloads.ByName("sci-002"), Config: DefaultTLBOnlyConfig(testInstr)}
	want, err := RunMulti(context.Background(), spec, factories)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cache = l2stream.NewCache(0)
	defer spec.Cache.Close()
	var wg sync.WaitGroup
	got := make([][]TLBOnlyResult, 6)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each caller asks in its own order, so the callers' walk
			// sets and memo slots interleave.
			fs := slices.Clone(factories)
			rotate := g % len(fs)
			fs = append(fs[rotate:], fs[:rotate]...)
			rs, err := RunMulti(context.Background(), spec, fs)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = append(rs[len(rs)-rotate:], rs[:len(rs)-rotate]...)
		}(g)
	}
	wg.Wait()
	for g, rs := range got {
		if !reflect.DeepEqual(rs, want) {
			t.Errorf("caller %d: got %+v, want %+v", g, rs, want)
		}
	}
}
