package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistRegFoldMatchesNaive(t *testing.T) {
	// Property: the incremental ring fold equals a naive reconstruction
	// of the conceptual long register folded into 64-bit chunks.
	f := func(vals []uint8, lengthRaw, widthSel uint8) bool {
		widths := []uint{2, 4, 8}
		width := widths[int(widthSel)%len(widths)]
		length := int(lengthRaw%48) + 1
		h := newHistReg(length, width)
		var window []uint64 // newest first
		for _, v := range vals {
			e := uint64(v) & (1<<width - 1)
			h.push(e)
			window = append([]uint64{e}, window...)
			if len(window) > length {
				window = window[:length]
			}
		}
		var want uint64
		off := uint(0)
		for _, e := range window {
			want ^= e << off
			off += width
			if off >= 64 {
				off -= 64
			}
		}
		return h.fold() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHistRegIncrementalFoldMatchesReference pins the tentpole
// invariant: the O(1) rotate-XOR fold maintained by push is
// bit-identical to the reference ring walk (foldSlow) at every step
// of a randomized push/reset interleaving, across the
// paper configuration (16×4, 8×8 — exactly 64-bit registers) and the
// Figure 2 sweep lengths, including conceptual registers far past 64
// bits (40×4 = 160 bits, 32×8 = 256 bits) where the XOR-folding
// actually wraps.
func TestHistRegIncrementalFoldMatchesReference(t *testing.T) {
	configs := []struct {
		length int
		width  uint
	}{
		{16, 4}, {8, 8}, // paper: exactly 64-bit registers
		{4, 4}, {8, 4}, {12, 4}, {24, 4}, {32, 4}, {40, 4}, // Fig. 2 path sweep
		{2, 8}, {16, 8}, {32, 8}, // branch-history sweep, >64-bit conceptual
		{7, 2}, {33, 2}, {64, 1}, // odd lengths, minimal width
	}
	rng := rand.New(rand.NewSource(0x5eed))
	for _, cfg := range configs {
		h := newHistReg(cfg.length, cfg.width)
		for step := 0; step < 800; step++ {
			if rng.Intn(50) == 0 {
				h.reset()
			} else {
				h.push(rng.Uint64())
			}
			if got, want := h.fold(), h.foldSlow(); got != want {
				t.Fatalf("len=%d width=%d step %d: incremental fold %#x != reference %#x",
					cfg.length, cfg.width, step, got, want)
			}
		}
	}
}

func TestHistoriesIndependentRegisters(t *testing.T) {
	h := NewHistories(DefaultHistoryConfig())
	h.PushCond(0xff0)
	if h.Path() != 0 || h.Indirect() != 0 {
		t.Error("cond push leaked into other registers")
	}
	h.PushAccess(0xc)
	if h.Indirect() != 0 {
		t.Error("access push leaked into indirect register")
	}
}

func TestHistoryConfigDefaults(t *testing.T) {
	// Zero lengths fall back to the paper's values.
	h := NewHistories(HistoryConfig{PathLeadingZeros: true})
	if len(h.path.ring) != 16 || len(h.cond.ring) != 8 {
		t.Errorf("defaulted lengths = %d/%d, want 16/8", len(h.path.ring), len(h.cond.ring))
	}
	// Without leading zeros, path elements are 2 bits wide.
	h2 := NewHistories(HistoryConfig{PathLength: 16})
	if h2.path.width != 2 {
		t.Errorf("no-leading-zero width = %d, want 2", h2.path.width)
	}
}

func TestPathLeadingZerosChangeEncoding(t *testing.T) {
	withLZ := NewHistories(HistoryConfig{PathLength: 16, PathLeadingZeros: true})
	without := NewHistories(HistoryConfig{PathLength: 16})
	for _, pc := range []uint64{0xc, 0x8, 0x4, 0xc} {
		withLZ.PushAccess(pc)
		without.PushAccess(pc)
	}
	// 4-bit vs 2-bit element packing must diverge after ≥2 pushes.
	if withLZ.Path() == without.Path() {
		t.Error("leading-zero injection did not change the folded history")
	}
}

func TestSignatureUses16Bits(t *testing.T) {
	p := MustNew(DefaultConfig())
	p.Attach(8, 8)
	seen := map[uint16]bool{}
	for pc := uint64(0); pc < 3000; pc++ {
		seen[p.Signature(pc<<2)] = true
		p.OnBranch(pc<<4, pc%2 == 0, pc%3 == 0, true, 0)
	}
	// The 16-bit hash must spread well beyond a few values.
	if len(seen) < 2000 {
		t.Errorf("signature diversity = %d/3000, suspiciously low", len(seen))
	}
}
