// Package core implements CHiRP — Control-flow History Reuse
// Prediction — the paper's contribution: a predictive replacement
// policy for the L2 TLB driven by a signature built from the global
// path history of PC bits, the conditional-branch address history and
// the indirect-branch address history (paper §IV, Figure 5).
package core

import "math/bits"

// histReg is a conceptual shift-register history of fixed-width
// elements, folded to 64 bits.
//
// The paper's registers are literal 64-bit shift registers: the path
// history holds 16 elements of 4 bits (two PC bits plus two injected
// leading zeros — the §III-B shift-and-scale transform), and each
// branch history holds 8 elements of 8 bits (PC bits [11:4]). When
// length × width is exactly 64 this type degenerates to that register.
// Longer histories (the Figure 2 sweep) are folded: the conceptual
// long register is XOR-folded into 64-bit chunks, the standard
// hardware trick for long branch histories.
//
// The folded value is maintained incrementally: because width divides
// 64, every element occupies an aligned lane [off, off+width) that
// never straddles the 64-bit boundary, so ageing the whole history by
// one element is a rotate-left of the fold by width bits, after which
// the expired oldest element sits at lane (length·width) mod 64 and
// can be XOR-cancelled while the new element XORs into lane 0:
//
//	fold' = rotl64(fold, width) ^ (oldest << outShift) ^ newest
//
// This is what the paper's hardware does in registers each event;
// fold() is thereby a field read instead of an O(length) walk. The
// ring holds the elements the fold must cancel as they expire, and is
// the state foldSlow recomputes the fold from in the equivalence
// tests.
type histReg struct {
	ring     []uint64 // most recent at (pos-1+len)%len
	pos      int
	width    uint   // bits per element; must divide 64
	fold64   uint64 // incrementally maintained fold()
	outShift uint   // (len(ring)·width) mod 64: expired element's lane
}

// newHistReg builds a history of length elements of width bits each.
func newHistReg(length int, width uint) *histReg {
	if length <= 0 {
		panic("core: history length must be positive")
	}
	if width == 0 || 64%width != 0 {
		panic("core: history element width must divide 64")
	}
	return &histReg{
		ring:     make([]uint64, length),
		width:    width,
		outShift: uint(length) * width % 64,
	}
}

// push shifts a new element into the history, ageing the rest and
// updating the cached fold in O(1).
//
//chirp:hotpath
func (h *histReg) push(v uint64) {
	v &= 1<<h.width - 1
	h.fold64 = bits.RotateLeft64(h.fold64, int(h.width)) ^ h.ring[h.pos]<<h.outShift ^ v
	h.ring[h.pos] = v
	h.pos++
	if h.pos == len(h.ring) {
		h.pos = 0
	}
}

// fold returns the 64-bit folded value of the conceptual register:
// element of age j sits at bit offset (j·width) mod 64. It is a field
// read; foldSlow is the reference recomputation.
//
//chirp:hotpath
func (h *histReg) fold() uint64 { return h.fold64 }

// foldSlow recomputes the fold by walking the ring — the reference
// implementation the incremental fold is property-tested against.
func (h *histReg) foldSlow() uint64 {
	var f uint64
	off := uint(0)
	idx := h.pos // walk from newest (pos-1) backwards
	for j := 0; j < len(h.ring); j++ {
		idx--
		if idx < 0 {
			idx = len(h.ring) - 1
		}
		f ^= h.ring[idx] << off
		off += h.width
		if off >= 64 {
			off -= 64
		}
	}
	return f
}

// reset clears the history.
func (h *histReg) reset() {
	for i := range h.ring {
		h.ring[i] = 0
	}
	h.pos = 0
	h.fold64 = 0
}

// Histories bundles CHiRP's three control-flow history registers
// (paper §IV-B): the global path history of L2-TLB-access PC bits, the
// conditional-branch address history and the unconditional-indirect-
// branch address history.
type Histories struct {
	path *histReg
	cond *histReg
	ind  *histReg

	// pathElemShift positions the two PC bits inside each path element
	// (the two injected leading zeros when the element is 4 bits wide).
	cfg HistoryConfig
}

// HistoryConfig sizes the three registers.
type HistoryConfig struct {
	// PathLength is the number of L2 TLB accesses recorded (paper: 16).
	PathLength int
	// PathLeadingZeros injects two zero bits per path element (paper
	// §III-B shift-and-scale; element width 4 instead of 2).
	PathLeadingZeros bool
	// BranchLength is the number of branches recorded per branch
	// history (paper: 8, at 8 bits of PC each).
	BranchLength int
}

// DefaultHistoryConfig returns the paper's configuration: 64-bit
// registers recording 16 accesses and 8 branches of each kind.
func DefaultHistoryConfig() HistoryConfig {
	return HistoryConfig{PathLength: 16, PathLeadingZeros: true, BranchLength: 8}
}

// NewHistories builds the three registers.
func NewHistories(cfg HistoryConfig) *Histories {
	if cfg.PathLength <= 0 {
		cfg.PathLength = 16
	}
	if cfg.BranchLength <= 0 {
		cfg.BranchLength = 8
	}
	pw := uint(2)
	if cfg.PathLeadingZeros {
		pw = 4
	}
	return &Histories{
		path: newHistReg(cfg.PathLength, pw),
		cond: newHistReg(cfg.BranchLength, 8),
		ind:  newHistReg(cfg.BranchLength, 8),
		cfg:  cfg,
	}
}

// PushAccess records an L2 TLB access by pc (paper Figure 5, procedure
// UpdatePathHist): the two low-order PC bits (bits 2 and 3, the bits
// the ADALINE study found most salient) enter the path history,
// followed by two injected zeros when shift-and-scale is on.
//
//chirp:hotpath
func (h *Histories) PushAccess(pc uint64) { h.path.push((pc >> 2) & 0x3) }

// PushCond records a conditional branch (paper Figure 5, procedure
// UpdateBrHist): PC bits [11:4].
//
//chirp:hotpath
func (h *Histories) PushCond(pc uint64) { h.cond.push((pc >> 4) & 0xff) }

// PushIndirect records an unconditional indirect branch: PC bits
// [11:4] into the indirect history.
//
//chirp:hotpath
func (h *Histories) PushIndirect(pc uint64) { h.ind.push((pc >> 4) & 0xff) }

// Path returns the folded 64-bit path history.
//
//chirp:hotpath
func (h *Histories) Path() uint64 { return h.path.fold() }

// Cond returns the folded 64-bit conditional-branch history.
//
//chirp:hotpath
func (h *Histories) Cond() uint64 { return h.cond.fold() }

// Indirect returns the folded 64-bit indirect-branch history.
//
//chirp:hotpath
func (h *Histories) Indirect() uint64 { return h.ind.fold() }

// Reset clears all three registers.
func (h *Histories) Reset() {
	h.path.reset()
	h.cond.reset()
	h.ind.reset()
}
