package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fifoPolicy is a trivial policy for exercising the TLB plumbing: it
// evicts ways round-robin and records every callback.
type fifoPolicy struct {
	ways     int
	next     []int
	accesses int
	hits     int
	inserts  int
	victims  int
}

func (*fifoPolicy) Name() string { return "fifo-test" }
func (p *fifoPolicy) Attach(sets, ways int) {
	p.ways = ways
	p.next = make([]int, sets)
}
func (p *fifoPolicy) OnAccess(*Access)           { p.accesses++ }
func (p *fifoPolicy) OnHit(uint32, int, *Access) { p.hits++ }
func (p *fifoPolicy) Victim(set uint32, _ *Access) int {
	p.victims++
	w := p.next[set]
	p.next[set] = (w + 1) % p.ways
	return w
}
func (p *fifoPolicy) OnInsert(uint32, int, *Access) { p.inserts++ }

func newTestTLB(t *testing.T, entries, ways int) (*TLB, *fifoPolicy) {
	t.Helper()
	p := &fifoPolicy{}
	tl, err := New(Config{Name: "test", Entries: entries, Ways: ways, PageShift: 12}, p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tl, p
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Entries: 1024, Ways: 8, PageShift: 12}, true},
		{"fully-assoc", Config{Entries: 8, Ways: 8, PageShift: 12}, true},
		{"zero entries", Config{Entries: 0, Ways: 8, PageShift: 12}, false},
		{"zero ways", Config{Entries: 64, Ways: 0, PageShift: 12}, false},
		{"not multiple", Config{Entries: 100, Ways: 8, PageShift: 12}, false},
		{"sets not pow2", Config{Entries: 24, Ways: 8, PageShift: 12}, false},
		{"zero page shift", Config{Entries: 64, Ways: 8, PageShift: 0}, false},
		{"huge page shift", Config{Entries: 64, Ways: 8, PageShift: 40}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() error = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewRejectsNilPolicy(t *testing.T) {
	if _, err := New(Config{Entries: 64, Ways: 8, PageShift: 12}, nil); err == nil {
		t.Fatal("New accepted nil policy")
	}
}

func TestLookupMissThenHit(t *testing.T) {
	tl, p := newTestTLB(t, 64, 8)
	a := &Access{PC: 0x1000, VPN: 42}
	if _, hit := tl.Lookup(a); hit {
		t.Fatal("empty TLB must miss")
	}
	tl.Insert(a, 4242)
	ppn, hit := tl.Lookup(a)
	if !hit || ppn != 4242 {
		t.Fatalf("Lookup after Insert = (%d, %v), want (4242, true)", ppn, hit)
	}
	if p.accesses != 2 || p.hits != 1 || p.inserts != 1 || p.victims != 0 {
		t.Errorf("policy callbacks = %+v unexpected", *p)
	}
	st := tl.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v unexpected", st)
	}
}

func TestInsertPrefersInvalidWays(t *testing.T) {
	tl, p := newTestTLB(t, 8, 8) // single set, 8 ways
	for i := 0; i < 8; i++ {
		a := &Access{VPN: uint64(i * 8)} // all map to set 0 (8 sets? no: 1 set)
		tl.Lookup(a)
		tl.Insert(a, uint64(i))
	}
	if p.victims != 0 {
		t.Fatalf("filling invalid ways must not call Victim; got %d calls", p.victims)
	}
	// One more forces an eviction.
	a := &Access{VPN: 999}
	tl.Lookup(a)
	evicted, vpn := tl.Insert(a, 1)
	if !evicted {
		t.Fatal("full set must evict")
	}
	if p.victims != 1 {
		t.Fatalf("Victim calls = %d, want 1", p.victims)
	}
	if vpn != 0 {
		t.Errorf("fifo evicted VPN %d, want 0", vpn)
	}
	if tl.Contains(0) {
		t.Error("evicted VPN still resident")
	}
	if !tl.Contains(999) {
		t.Error("inserted VPN not resident")
	}
}

func TestSetIndexing(t *testing.T) {
	tl, _ := newTestTLB(t, 1024, 8) // 128 sets
	if tl.Sets() != 128 {
		t.Fatalf("Sets() = %d, want 128", tl.Sets())
	}
	// VPNs that differ only above the set bits map to the same set and
	// therefore conflict.
	for i := 0; i < 9; i++ {
		a := &Access{VPN: uint64(i) * 128 * 7} // multiples of sets share set 0? 128*7 ≡ 0 mod 128
		if got := tl.SetIndex(a.VPN); got != 0 {
			t.Fatalf("SetIndex(%d) = %d, want 0", a.VPN, got)
		}
		tl.Lookup(a)
		tl.Insert(a, uint64(i))
	}
	st := tl.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (9 conflicting fills into 8 ways)", st.Evictions)
	}
}

func TestEfficiencyAccounting(t *testing.T) {
	tl, _ := newTestTLB(t, 8, 8)
	// Insert VPN 1 at t=1, hit it at t=2 and t=3, then idle accesses to
	// other VPNs until t=6, flush. Live time 2 (t1→t3), resident 5.
	a1 := &Access{VPN: 1}
	tl.Lookup(a1) // t=1 miss
	tl.Insert(a1, 1)
	tl.Lookup(a1) // t=2 hit
	tl.Lookup(a1) // t=3 hit
	for i := uint64(2); i <= 4; i++ {
		a := &Access{VPN: i}
		tl.Lookup(a) // t=4,5,6 misses
		tl.Insert(a, i)
	}
	tl.FlushAccounting()
	st := tl.Stats()
	eff := st.Efficiency()
	// Entry 1: live 3-1=2, resident 6-1=5. Entries 2..4: live 0,
	// resident 2,1,0. Total live 2, resident 8 → 0.25.
	if eff < 0.2499 || eff > 0.2501 {
		t.Errorf("Efficiency() = %v, want 0.25", eff)
	}
	// Flushing twice must not double count.
	tl.FlushAccounting()
	if got := tl.Stats().Efficiency(); got != eff {
		t.Errorf("double flush changed efficiency: %v → %v", eff, got)
	}
}

func TestEfficiencyZeroWhenIdle(t *testing.T) {
	tl, _ := newTestTLB(t, 8, 8)
	if got := tl.Stats().Efficiency(); got != 0 {
		t.Errorf("idle efficiency = %v, want 0", got)
	}
	if got := tl.Stats().MissRatio(); got != 0 {
		t.Errorf("idle miss ratio = %v, want 0", got)
	}
}

func TestPanicOnBadVictim(t *testing.T) {
	bad := &badVictimPolicy{}
	tl, err := New(Config{Entries: 2, Ways: 2, PageShift: 12}, bad)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		a := &Access{VPN: uint64(i * 1)}
		tl.Lookup(a)
		tl.Insert(a, 0)
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid victim way must panic")
		}
	}()
	a := &Access{VPN: 99}
	tl.Lookup(a)
	tl.Insert(a, 0)
}

type badVictimPolicy struct{ fifoPolicy }

func (*badVictimPolicy) Victim(uint32, *Access) int { return 97 }

func TestResidentVPNs(t *testing.T) {
	tl, _ := newTestTLB(t, 8, 8)
	want := map[uint64]bool{}
	for i := uint64(10); i < 14; i++ {
		a := &Access{VPN: i * 8}
		tl.Lookup(a)
		tl.Insert(a, i)
		want[i*8] = true
	}
	got := tl.ResidentVPNs(0)
	if len(got) != len(want) {
		t.Fatalf("ResidentVPNs len = %d, want %d", len(got), len(want))
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected resident VPN %d", v)
		}
	}
}

func TestRecencyExactLRU(t *testing.T) {
	r := NewRecency(2, 4)
	// Touch order in set 0: 0,1,2,3 → LRU is 0.
	for w := 0; w < 4; w++ {
		r.Touch(0, w)
	}
	if got := r.LRU(0); got != 0 {
		t.Fatalf("LRU = %d, want 0", got)
	}
	r.Touch(0, 0) // now 1 is LRU
	if got := r.LRU(0); got != 1 {
		t.Fatalf("LRU after touch = %d, want 1", got)
	}
	// Set 1 is independent.
	r.Touch(1, 2)
	if got := r.LRU(0); got != 1 {
		t.Errorf("touching set 1 affected set 0: LRU = %d", got)
	}
	if r.Position(0, 0) != 0 {
		t.Errorf("position of MRU way = %d, want 0", r.Position(0, 0))
	}
}

func TestRecencyPositionsArePermutation(t *testing.T) {
	f := func(ops []uint8) bool {
		const ways = 8
		r := NewRecency(1, ways)
		for _, op := range ops {
			r.Touch(0, int(op%ways))
		}
		seen := [ways]bool{}
		for w := 0; w < ways; w++ {
			p := r.Position(0, w)
			if p < 0 || p >= ways || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRecencyTooManyWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRecency must panic above 255 ways")
		}
	}()
	NewRecency(1, 256)
}

// sigPolicy latches per-access state in OnAccess the way signature
// policies (SHiP, CHiRP) do, and records what each insert was tagged
// with — the probe for the prefetch-fill contract.
type sigPolicy struct {
	fifoPolicy
	lastAccess  Access
	insertTags  []Access // the latched access state at each OnInsert
	sawPrefetch bool
}

func (p *sigPolicy) OnAccess(a *Access) {
	p.fifoPolicy.OnAccess(a)
	p.lastAccess = *a
	if a.Prefetch {
		p.sawPrefetch = true
	}
}
func (p *sigPolicy) OnInsert(set uint32, way int, a *Access) {
	p.fifoPolicy.OnInsert(set, way, a)
	p.insertTags = append(p.insertTags, p.lastAccess)
}

func TestInsertPrefetchDrivesOnAccess(t *testing.T) {
	p := &sigPolicy{}
	tl, err := New(Config{Name: "test", Entries: 16, Ways: 4, PageShift: 12}, p)
	if err != nil {
		t.Fatal(err)
	}

	// A demand miss+fill, then a prefetch fill for the next page.
	demand := Access{PC: 0x4000, VPN: 100}
	if _, hit := tl.Lookup(&demand); hit {
		t.Fatal("empty TLB hit")
	}
	tl.Insert(&demand, 100)
	before := tl.Stats()

	pa := Access{PC: 0x4000, VPN: 101}
	tl.InsertPrefetch(&pa, 101)

	// The policy contract: the prefetch insert was preceded by an
	// OnAccess carrying the prefetch access itself (VPN 101, Prefetch
	// set), not the stale demand access (VPN 100).
	if !p.sawPrefetch {
		t.Error("prefetch fill never drove OnAccess with Prefetch set")
	}
	if got := p.insertTags[len(p.insertTags)-1]; got.VPN != 101 || !got.Prefetch {
		t.Errorf("prefetch insert tagged with latched access %+v, want VPN 101 with Prefetch", got)
	}
	// Prefetch traffic is not demand traffic: no access/hit/miss moved.
	after := tl.Stats()
	if after.Accesses != before.Accesses || after.Misses != before.Misses || after.Hits != before.Hits {
		t.Errorf("prefetch fill moved demand counters: %+v -> %+v", before, after)
	}
	if !tl.Contains(101) {
		t.Error("prefetched VPN not resident")
	}
	// The prefetched entry behaves like any other on the demand path.
	hitA := Access{PC: 0x9000, VPN: 101}
	if _, hit := tl.Lookup(&hitA); !hit {
		t.Error("demand lookup missed the prefetched entry")
	}
}

// TestRecencyMatchesReferenceModel drives random touch sequences
// through every packed width (ways 1..8, the SWAR word path) and one
// wide geometry (ways 16, the byte-walk path), checking Position and
// LRU against a straightforward model of an exact LRU stack after
// every touch.
func TestRecencyMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for ways := 1; ways <= 16; ways++ {
		if ways > 8 && ways != 16 {
			continue
		}
		const sets = 4
		r := NewRecency(sets, ways)
		// model[s][w] = stack position of way w, identity-initialised
		// like NewRecency.
		model := make([][]int, sets)
		for s := range model {
			model[s] = make([]int, ways)
			for w := range model[s] {
				model[s][w] = w
			}
		}
		for step := 0; step < 2000; step++ {
			s := uint32(rng.Intn(sets))
			w := rng.Intn(ways)
			r.Touch(s, w)
			p := model[s][w]
			for v := range model[s] {
				if model[s][v] < p {
					model[s][v]++
				}
			}
			model[s][w] = 0
			for v := range model[s] {
				if got := r.Position(s, v); got != model[s][v] {
					t.Fatalf("ways=%d step=%d: Position(%d,%d) = %d, model %d", ways, step, s, v, got, model[s][v])
				}
			}
			wantLRU := 0
			for v := range model[s] {
				if model[s][v] == ways-1 {
					wantLRU = v
				}
			}
			if got := r.LRU(s); got != wantLRU {
				t.Fatalf("ways=%d step=%d: LRU(%d) = %d, model %d", ways, step, s, got, wantLRU)
			}
		}
	}
}
