package paging

import (
	"testing"
	"testing/quick"
)

func TestTranslateStable(t *testing.T) {
	s := NewSpace()
	p1, faulted := s.Translate(100)
	if !faulted {
		t.Fatal("first touch must fault")
	}
	p2, faulted2 := s.Translate(100)
	if faulted2 {
		t.Fatal("second touch must not fault")
	}
	if p1 != p2 {
		t.Fatalf("translation unstable: %d vs %d", p1, p2)
	}
	if s.PageFaults() != 1 || s.Mapped() != 1 {
		t.Errorf("faults/mapped = %d/%d, want 1/1", s.PageFaults(), s.Mapped())
	}
}

func TestSequentialAllocContiguous(t *testing.T) {
	s := NewSpace()
	a, _ := s.Translate(10)
	b, _ := s.Translate(11)
	if b != a+1 {
		t.Errorf("sequential frames not contiguous: %d then %d", a, b)
	}
}

// flatMem serves every PTE access with a fixed latency and counts
// accesses.
type flatMem struct {
	lat      uint64
	accesses uint64
	addrs    map[uint64]bool
}

func (m *flatMem) Access(pa uint64, _ bool) uint64 {
	m.accesses++
	if m.addrs != nil {
		m.addrs[pa] = true
	}
	return m.lat
}

func TestRadixWalkerFourLevels(t *testing.T) {
	s := NewSpace()
	m := &flatMem{lat: 10, addrs: map[uint64]bool{}}
	w := NewRadixWalker(s, m, PSCConfig{}) // no PSCs
	ppn, cycles := w.Walk(0x12345)
	if cycles != 4*10 {
		t.Errorf("walk cycles = %d, want 40 (4 PTE loads)", cycles)
	}
	want, _ := s.Translate(0x12345)
	if ppn != want {
		t.Errorf("ppn = %d, want %d", ppn, want)
	}
	if len(m.addrs) != 4 {
		t.Errorf("distinct PTE addresses = %d, want 4", len(m.addrs))
	}
}

func TestRadixWalkerPSCShortensWalks(t *testing.T) {
	s := NewSpace()
	m := &flatMem{lat: 10}
	w := NewRadixWalker(s, m, PSCConfig{EntriesPerLevel: 16})
	// Walk neighbouring pages: after the first walk the PSC holds the
	// interior nodes, so later walks touch fewer levels.
	w.Walk(0x1000)
	_, c2 := w.Walk(0x1001)
	if c2 >= 40 {
		t.Errorf("PSC-assisted walk cost %d cycles, want < 40", c2)
	}
	walks, pteLoads, pscHits, _ := w.Stats()
	if walks != 2 {
		t.Errorf("walks = %d, want 2", walks)
	}
	if pscHits == 0 {
		t.Error("expected at least one PSC hit")
	}
	if pteLoads >= 8 {
		t.Errorf("pte loads = %d, want < 8 with PSCs", pteLoads)
	}
}

func TestRadixWalkerMatchesTranslation(t *testing.T) {
	f := func(vpnsRaw []uint16) bool {
		s := NewSpace()
		w := NewRadixWalker(s, &flatMem{lat: 1}, PSCConfig{EntriesPerLevel: 8})
		for _, raw := range vpnsRaw {
			vpn := uint64(raw)
			ppn, _ := w.Walk(vpn)
			want, _ := s.Translate(vpn)
			if ppn != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRadixWalkerAverageLatency(t *testing.T) {
	s := NewSpace()
	w := NewRadixWalker(s, &flatMem{lat: 25}, PSCConfig{})
	if w.AverageLatency() != 0 {
		t.Error("idle average must be 0")
	}
	w.Walk(1)
	if got := w.AverageLatency(); got != 100 {
		t.Errorf("average latency = %v, want 100", got)
	}
}
