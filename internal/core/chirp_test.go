package core

import (
	"testing"
	"testing/quick"

	"github.com/chirplab/chirp/internal/tlb"
)

func TestConfigValidate(t *testing.T) {
	ok := DefaultConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	bad := []Config{
		func() Config { c := DefaultConfig(); c.TableEntries = 0; return c }(),
		func() Config { c := DefaultConfig(); c.TableEntries = 1000; return c }(),
		func() Config { c := DefaultConfig(); c.CounterBits = 0; return c }(),
		func() Config { c := DefaultConfig(); c.CounterBits = 9; return c }(),
		func() Config { c := DefaultConfig(); c.DeadThreshold = 3; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on invalid config")
		}
	}()
	c := DefaultConfig()
	c.TableEntries = 3
	MustNew(c)
}

func TestHistRegShiftSemantics(t *testing.T) {
	// With 16 elements of 4 bits the fold is exactly the paper's 64-bit
	// shift register: h = h<<4 | elem.
	h := newHistReg(16, 4)
	var ref uint64
	vals := []uint64{1, 2, 3, 0, 1, 3, 2, 2, 1, 0, 3, 3, 1, 2, 0, 1, 2, 3, 1}
	for _, v := range vals {
		h.push(v)
		ref = ref<<4 | v
	}
	if got := h.fold(); got != ref {
		t.Errorf("fold = %#x, want shift-register value %#x", got, ref)
	}
}

func TestHistRegBranchSemantics(t *testing.T) {
	// 8 elements × 8 bits: h = h<<8 | elem.
	h := newHistReg(8, 8)
	var ref uint64
	for _, v := range []uint64{0xab, 0xcd, 0x12, 0x44, 0x99, 0x01, 0xfe, 0x7a, 0x3c} {
		h.push(v)
		ref = ref<<8 | v
	}
	if got := h.fold(); got != ref {
		t.Errorf("fold = %#x, want %#x", got, ref)
	}
}

func TestHistRegLongFolds(t *testing.T) {
	// A 32-element 4-bit history folds the 128-bit conceptual register
	// into 64 bits; pushing 32 distinct elements must influence the
	// fold (no element silently dropped).
	h := newHistReg(32, 4)
	h.push(0xf)
	first := h.fold()
	for i := 0; i < 31; i++ {
		h.push(0)
	}
	// The first element is now at age 31 → offset (31*4)%64 = 60.
	if got := h.fold(); got != 0xf<<60 {
		t.Errorf("aged fold = %#x, want %#x", got, uint64(0xf)<<60)
	}
	_ = first
	h.push(0)
	if got := h.fold(); got != 0 {
		t.Errorf("fully-aged-out fold = %#x, want 0", got)
	}
}

func TestHistRegValidation(t *testing.T) {
	for _, f := range []func(){
		func() { newHistReg(0, 4) },
		func() { newHistReg(8, 0) },
		func() { newHistReg(8, 3) }, // 3 does not divide 64
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistoriesUpdateRules(t *testing.T) {
	h := NewHistories(DefaultHistoryConfig())
	// Path: PC bits [3:2] with two injected zeros.
	h.PushAccess(0b1100) // bits 3:2 = 0b11
	if got := h.Path(); got != 0b0011 {
		t.Errorf("path after one access = %#b, want 0b0011", got)
	}
	h.PushAccess(0b0100) // bits 3:2 = 0b01
	if got := h.Path(); got != 0b0011_0001 {
		t.Errorf("path after two accesses = %#b, want 0b00110001", got)
	}
	// Conditional: PC bits [11:4].
	h.PushCond(0xabc0)
	if got := h.Cond(); got != 0xbc {
		t.Errorf("cond = %#x, want 0xbc", got)
	}
	// Indirect is independent.
	if got := h.Indirect(); got != 0 {
		t.Errorf("indirect = %#x, want 0", got)
	}
	h.PushIndirect(0x1230)
	if got := h.Indirect(); got != 0x23 {
		t.Errorf("indirect = %#x, want 0x23", got)
	}
	h.Reset()
	if h.Path() != 0 || h.Cond() != 0 || h.Indirect() != 0 {
		t.Error("Reset must clear all histories")
	}
}

func TestSignatureComposition(t *testing.T) {
	p := MustNew(DefaultConfig())
	p.Attach(8, 8)
	// With clean histories the signature depends only on the PC.
	s1 := p.Signature(0x4000)
	s2 := p.Signature(0x8000)
	if s1 == s2 {
		t.Error("different PCs must give different signatures")
	}
	// Conditional branch history changes the signature of the same PC.
	p.OnBranch(0x1230, true, false, true, 0)
	if p.Signature(0x4000) == s1 {
		t.Error("conditional-branch history must perturb the signature")
	}
	// Indirect history too.
	before := p.Signature(0x4000)
	p.OnBranch(0x5670, false, true, true, 0)
	if p.Signature(0x4000) == before {
		t.Error("indirect-branch history must perturb the signature")
	}
	// Direct unconditional branches must NOT perturb it (they enter no
	// history).
	before = p.Signature(0x4000)
	p.OnBranch(0x9990, false, false, true, 0)
	if p.Signature(0x4000) != before {
		t.Error("direct branches must not perturb the signature")
	}
}

func TestFeatureSwitches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseCondHistory = false
	cfg.UseIndirectHistory = false
	cfg.UsePathHistory = false
	p := MustNew(cfg)
	p.Attach(8, 8)
	s := p.Signature(0x4000)
	p.OnBranch(0x123c, true, false, true, 0)
	p.OnBranch(0x567c, false, true, true, 0)
	a := &tlb.Access{PC: 0x7000, VPN: 1, Set: 1}
	p.OnAccess(a) // would push path history if enabled
	if p.Signature(0x4000) != s {
		t.Error("disabled features must not affect the signature")
	}
	if got := uint64(s); got != uint64(p.Signature(0x4000)) {
		t.Errorf("signature unstable: %d vs %d", s, got)
	}
}

// drive pushes a VPN stream through a TLB under p, with one PC per
// distinct VPN region.
func drive(t *testing.T, p tlb.Policy, entries, ways int, accesses []tlb.Access) *tlb.TLB {
	t.Helper()
	tl, err := tlb.New(tlb.Config{Name: "t", Entries: entries, Ways: ways, PageShift: 12}, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range accesses {
		a := accesses[i]
		if _, hit := tl.Lookup(&a); !hit {
			tl.Insert(&a, a.VPN)
		}
	}
	return tl
}

func TestCHiRPLearnsDeadStreams(t *testing.T) {
	// Streaming pages (never reused) inserted under one control-flow
	// context, hot pages under another. After warmup CHiRP must keep
	// the hot set resident by evicting predicted-dead stream pages.
	p := MustNew(DefaultConfig())
	tl, err := tlb.New(tlb.Config{Name: "t", Entries: 8, Ways: 8, PageShift: 12}, p)
	if err != nil {
		t.Fatal(err)
	}
	hot := []uint64{1, 2, 3, 4}
	next := uint64(100)
	touch := func(pc, vpn uint64) {
		a := &tlb.Access{PC: pc, VPN: vpn}
		if _, hit := tl.Lookup(a); !hit {
			tl.Insert(a, vpn)
		}
	}
	for rep := 0; rep < 500; rep++ {
		for _, h := range hot {
			p.OnBranch(0x100, true, false, true, 0) // hot-loop branch context
			touch(0x4000, h)
		}
		p.OnBranch(0x2000, true, false, false, 0) // stream context
		touch(0x4000, next)                       // same PC as hot accesses!
		next++
	}
	st := tl.Stats()
	hitRatio := float64(st.Hits) / float64(st.Accesses)
	if hitRatio < 0.7 {
		t.Errorf("CHiRP hit ratio %.3f too low; failed to keep hot set resident", hitRatio)
	}
	for _, h := range hot {
		if !tl.Contains(h) {
			t.Errorf("hot VPN %d not resident at end", h)
		}
	}
}

func TestCHiRPSelectiveHitUpdateSuppressesTraffic(t *testing.T) {
	run := func(selective bool) (rate float64) {
		cfg := DefaultConfig()
		cfg.SelectiveHitUpdate = selective
		cfg.FirstHitOnly = false // isolate the selective filter
		p := MustNew(cfg)
		tl, err := tlb.New(tlb.Config{Name: "t", Entries: 64, Ways: 8, PageShift: 12}, p)
		if err != nil {
			t.Fatal(err)
		}
		// Repeatedly hit the same page: every access lands in the same
		// set as the previous one.
		a := &tlb.Access{PC: 0x1000, VPN: 5}
		tl.Lookup(a)
		tl.Insert(a, 5)
		for i := 0; i < 1000; i++ {
			tl.Lookup(a)
		}
		r, w := p.TableAccesses()
		return float64(r+w) / float64(tl.Stats().Accesses)
	}
	withFilter := run(true)
	without := run(false)
	if withFilter > 0.1 {
		t.Errorf("selective hit update: table access rate %.3f, want near 0 on same-set hits", withFilter)
	}
	if without < 1.0 {
		t.Errorf("without filter every hit must touch the table; rate %.3f", without)
	}
}

func TestCHiRPFirstHitOnlyTraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SelectiveHitUpdate = false // isolate the first-hit filter
	p := MustNew(cfg)
	tl, err := tlb.New(tlb.Config{Name: "t", Entries: 64, Ways: 8, PageShift: 12}, p)
	if err != nil {
		t.Fatal(err)
	}
	a := &tlb.Access{PC: 0x1000, VPN: 5}
	tl.Lookup(a)
	tl.Insert(a, 5)
	_, w0 := p.TableAccesses()
	tl.Lookup(a) // first hit → trains
	_, w1 := p.TableAccesses()
	if w1 != w0+1 {
		t.Fatalf("first hit must write the table once: Δwrites = %d", w1-w0)
	}
	for i := 0; i < 10; i++ {
		tl.Lookup(a) // subsequent hits → no training
	}
	_, w2 := p.TableAccesses()
	if w2 != w1 {
		t.Errorf("subsequent hits must not write the table: Δwrites = %d", w2-w1)
	}
}

func TestCHiRPLRUEvictionTrainsDead(t *testing.T) {
	cfg := DefaultConfig()
	p := MustNew(cfg)
	p.Attach(1, 2)
	a := &tlb.Access{PC: 0x1000, VPN: 1, Set: 0}
	p.OnAccess(a)
	p.OnInsert(0, 0, a)
	sig0 := p.sig[0]
	b := &tlb.Access{PC: 0x2000, VPN: 2, Set: 0}
	p.OnAccess(b)
	p.OnInsert(0, 1, b)
	// No dead entries: Victim must return the LRU way (0) and increment
	// its signature's counter.
	c := &tlb.Access{PC: 0x3000, VPN: 3, Set: 0}
	p.OnAccess(c)
	before := p.table.Read(p.index(sig0))
	if w := p.Victim(0, c); w != 0 {
		t.Fatalf("victim = %d, want LRU way 0", w)
	}
	after := p.table.Read(p.index(sig0))
	if after != before+1 {
		t.Errorf("LRU eviction must increment victim-signature counter: %d → %d", before, after)
	}
}

func TestCHiRPDeadVictimSelection(t *testing.T) {
	p := MustNew(DefaultConfig())
	p.Attach(1, 4)
	a := &tlb.Access{PC: 0x1000, VPN: 1, Set: 0}
	for w := 0; w < 4; w++ {
		p.OnAccess(a)
		p.OnInsert(0, w, a)
	}
	p.dead[2] = true
	if w := p.Victim(0, a); w != 2 {
		t.Errorf("victim = %d, want predicted-dead way 2", w)
	}
	// Figure 5 scans in way order: with ways 1 and 3 dead the victim is
	// way 1, though way 3 sits deeper in the LRU stack. Evicting a dead
	// entry trains nothing.
	p.dead[1], p.dead[2], p.dead[3] = true, false, true
	p.rec.Touch(0, 1)
	writes := p.writes
	if w := p.Victim(0, a); w != 1 {
		t.Errorf("victim = %d, want the first dead way 1", w)
	}
	if p.writes != writes {
		t.Errorf("a dead victim wrote the table %d times", p.writes-writes)
	}
}

func TestCHiRPDeadThreshold(t *testing.T) {
	p := MustNew(DefaultConfig())
	p.Attach(1, 1)
	sig := uint16(0x1234)
	idx := p.index(sig)
	if p.predict(sig) {
		t.Error("zero counter must predict live")
	}
	p.table.Inc(idx)
	if p.predict(sig) {
		t.Error("counter 1 (== threshold) must predict live")
	}
	p.table.Inc(idx)
	if !p.predict(sig) {
		t.Error("counter 2 (> threshold) must predict dead")
	}
}

func TestStorageForMatchesTableI(t *testing.T) {
	// Paper Table I (1024-entry TLB): prediction bits 1024 (128 B),
	// signature 16×1024 (2 KB), three 64-bit registers (24 B), plus the
	// counter table. For the 1 KB (4096×2-bit) budget: total = 128 +
	// 2048 + 24 + 1024 = 3224 bytes ≈ 3.15 KB.
	cfg := DefaultConfig()
	s := StorageFor(cfg, 1024)
	if s.PredictionBits != 1024 {
		t.Errorf("prediction bits = %d, want 1024", s.PredictionBits)
	}
	if s.SignatureBits != 16*1024 {
		t.Errorf("signature bits = %d, want %d", s.SignatureBits, 16*1024)
	}
	if s.HistoryBits != 192 {
		t.Errorf("history bits = %d, want 192", s.HistoryBits)
	}
	if s.CounterBits != 8192 {
		t.Errorf("counter bits = %d, want 8192", s.CounterBits)
	}
	if got := s.TotalBytes(); got != 3224 {
		t.Errorf("total bytes = %v, want 3224", got)
	}
	// The paper's small-end column: 512-counter table ≈ 2.65 KB total
	// with the same metadata.
	small := cfg
	small.TableEntries = 512
	if got := StorageFor(small, 1024).TotalBytes(); got != 2328 {
		t.Errorf("small-table total = %v bytes, want 2328", got)
	}
}

func TestSignatureDeterminism(t *testing.T) {
	f := func(pc uint64, branches []uint16) bool {
		mk := func() *CHiRP {
			p := MustNew(DefaultConfig())
			p.Attach(8, 8)
			for _, b := range branches {
				p.OnBranch(uint64(b)<<2, b&1 == 0, b&1 == 1, true, 0)
			}
			return p
		}
		return mk().Signature(pc) == mk().Signature(pc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTableIndexWithinBounds(t *testing.T) {
	f := func(sig uint16, sizeLog uint8) bool {
		cfg := DefaultConfig()
		cfg.TableEntries = 1 << (7 + sizeLog%9) // 128 … 32768
		p := MustNew(cfg)
		return p.index(sig) < uint64(cfg.TableEntries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
