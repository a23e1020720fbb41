package paging

import (
	"reflect"
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

// TestPageTableBuiltOnAttach: a space builds no page table until a
// RadixWalker is attached. Attaching one to a space that already
// mapped pages back-fills their table in first-touch order, so the
// table, node for node and frame for frame, is the one a space with
// the walker attached from the start builds over the same touches, and
// later touches extend both alike. A second walker rebuilds nothing.
func TestPageTableBuiltOnAttach(t *testing.T) {
	f := func(before, after []uint32) bool {
		eager, lazy := NewSpace(), NewSpace()
		NewRadixWalker(eager, &flatMem{lat: 1}, PSCConfig{})
		for _, raw := range before {
			// Spread the pages over several regions and upper-level
			// nodes.
			vpn := uint64(raw) << 4
			eager.Translate(vpn)
			lazy.Translate(vpn)
		}
		if lazy.PageTableNodes() != 0 {
			return false
		}
		w := NewRadixWalker(lazy, &flatMem{lat: 1}, PSCConfig{})
		for _, raw := range after {
			vpn := uint64(raw) << 4
			eager.Translate(vpn)
			w.Walk(vpn)
		}
		nodes := lazy.PageTableNodes()
		NewRadixWalker(lazy, &flatMem{lat: 1}, PSCConfig{})
		return lazy.PageTableNodes() == nodes &&
			eager.root == lazy.root && eager.nextNode == lazy.nextNode &&
			reflect.DeepEqual(eager.nodes, lazy.nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestFramesAcrossRegions: touches that alternate between regions,
// so that no lookup finds the previous lookup's region, still give
// each page the frame of its first touch.
func TestFramesAcrossRegions(t *testing.T) {
	s := NewSpace()
	want := map[uint64]uint64{}
	for round := 0; round < 3; round++ {
		for page := uint64(0); page < 3; page++ {
			for _, r := range []uint64{0, 1, 64, 1 << 20} {
				vpn := r*regionPages + page*7
				p, faulted := s.Translate(vpn)
				if round == 0 {
					if !faulted {
						t.Fatalf("first touch of %#x did not fault", vpn)
					}
					want[vpn] = p
				} else if faulted || p != want[vpn] {
					t.Fatalf("round %d: %#x → (%d, faulted %v), first touch gave %d", round, vpn, p, faulted, want[vpn])
				}
			}
		}
	}
	if s.Mapped() != len(want) {
		t.Errorf("mapped %d pages, want %d", s.Mapped(), len(want))
	}
}
