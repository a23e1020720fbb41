package core

import (
	"fmt"

	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
)

// Config parameterises CHiRP. The zero value is not valid; use
// DefaultConfig. Every Figure 6 ablation and every Figure 2/9 sweep is
// expressible through these knobs.
type Config struct {
	// TableEntries is the number of saturating counters in the single
	// prediction table (power of two). The paper's 1 KB main budget is
	// 4096 two-bit counters; Figure 9 sweeps 128 B (512) to 8 KB
	// (32768).
	TableEntries int
	// CounterBits is the width of each prediction counter (paper: 2).
	CounterBits uint
	// DeadThreshold predicts dead when counter > DeadThreshold (paper
	// Figure 5, procedure Predict; 1 for 2-bit counters).
	DeadThreshold uint8

	// History sizes the three control-flow history registers.
	History HistoryConfig

	// Feature switches for the signature (paper §IV-B; all true in the
	// full design). The current PC (shifted right by two) is always a
	// component.
	UsePathHistory     bool
	UseCondHistory     bool
	UseIndirectHistory bool

	// SelectiveHitUpdate suppresses prediction-table traffic on hits to
	// the same TLB set as the immediately preceding access (§III
	// Observation 2 and §IV-D; on in the full design).
	SelectiveHitUpdate bool
	// FirstHitOnly trains the table on an entry's first hit only
	// (§IV-E; on in the full design). When off, every (non-suppressed)
	// hit trains, as SHiP and GHRP do.
	FirstHitOnly bool
}

// DefaultConfig returns the paper's main configuration: a 1 KB
// prediction table (4096 × 2-bit counters), 64-bit histories, all
// features and both update filters on.
func DefaultConfig() Config {
	return Config{
		TableEntries:       4096,
		CounterBits:        2,
		DeadThreshold:      1,
		History:            DefaultHistoryConfig(),
		UsePathHistory:     true,
		UseCondHistory:     true,
		UseIndirectHistory: true,
		SelectiveHitUpdate: true,
		FirstHitOnly:       true,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.TableEntries <= 0 || c.TableEntries&(c.TableEntries-1) != 0 {
		return fmt.Errorf("chirp: table entries %d must be a positive power of two", c.TableEntries)
	}
	if c.CounterBits == 0 || c.CounterBits > 8 {
		return fmt.Errorf("chirp: counter bits %d out of range 1..8", c.CounterBits)
	}
	if max := uint8(1<<c.CounterBits - 1); c.DeadThreshold >= max {
		return fmt.Errorf("chirp: dead threshold %d must be below counter max %d", c.DeadThreshold, max)
	}
	return nil
}

// CHiRP is the Control-flow History Reuse Prediction replacement
// policy (paper Figure 5) for a set-associative L2 TLB.
//
// It implements tlb.Policy, tlb.BranchObserver and
// tlb.TableAccounting.
type CHiRP struct {
	cfg Config
	seq *SigSequencer

	table *policy.CounterTable
	rec   *tlb.Recency
	ways  int

	// Per-entry CHiRP metadata (paper Table I: 16-bit signature, 1
	// prediction bit; the 3 LRU bits live in rec; firstHit is the
	// §IV-E training filter).
	sig      []uint16
	dead     []bool
	firstHit []bool

	// Per-access cached state: curSig tags the access being served and
	// pSig any prefetch fill it triggers. A demand OnAccess takes both
	// from seq, or in fed mode from the last SetSignatures.
	curSig, pSig uint16
	sameSet      bool
	lastSet      uint32
	haveSet      bool

	// External-signature mode (tlb.SignatureFed): when extSigs is set,
	// the driver has precomputed the identical signature sequence from
	// the captured stream and seq stays untouched.
	extSigs bool

	reads, writes uint64
	accesses      uint64

	// Prediction-outcome tallies (see obs.go): deadOnArrival counts
	// inserts whose entry was predicted dead at fill time, falseDead
	// counts hits landing on a dead-marked entry — each such hit is
	// direct evidence of a misprediction the victim scan could have
	// acted on.
	deadOnArrival uint64
	falseDead     uint64

	// published mirrors the counters as of the last PublishMetrics, so
	// repeated publishes emit deltas (see obs.go).
	published struct {
		reads, writes, accesses, deadOnArrival, falseDead uint64
	}
}

var (
	_ tlb.Policy          = (*CHiRP)(nil)
	_ tlb.BranchObserver  = (*CHiRP)(nil)
	_ tlb.TableAccounting = (*CHiRP)(nil)
	_ tlb.SignatureFed    = (*CHiRP)(nil)
)

// New builds a CHiRP policy from cfg.
func New(cfg Config) (*CHiRP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &CHiRP{
		cfg:   cfg,
		seq:   NewSigSequencer(cfg),
		table: policy.NewCounterTable(cfg.TableEntries, cfg.CounterBits),
	}, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *CHiRP {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements tlb.Policy.
func (*CHiRP) Name() string { return "chirp" }

// Config returns the policy's configuration.
func (p *CHiRP) Config() Config { return p.cfg }

// Histories exposes the sequencer's history registers (for tests).
func (p *CHiRP) Histories() *Histories { return p.seq.hist }

// Attach implements tlb.Policy.
func (p *CHiRP) Attach(sets, ways int) {
	p.ways = ways
	n := sets * ways
	p.sig = make([]uint16, n)
	p.dead = make([]bool, n)
	p.firstHit = make([]bool, n)
	p.rec = tlb.NewRecency(sets, ways)
}

// OnBranch implements tlb.BranchObserver by feeding the branch to the
// policy's SigSequencer. Branch outcomes and targets do not enter the
// signature — the paper notes the signature "relies on bits from the
// branch PC, not conditional branch outcomes or bits from branch
// targets".
//
//chirp:hotpath
func (p *CHiRP) OnBranch(pc uint64, conditional, indirect, _ bool, _ uint64) {
	p.seq.OnBranch(pc, conditional, indirect)
}

// signatureOf combines the enabled features (paper Figure 5, lines
// 5–6): sign ← PC≫2 ⊕ pathHist ⊕ condBrHist ⊕ unCondBrHist, hashed to
// 16 bits. SigSequencer is its one caller besides Signature.
//
//chirp:hotpath
func signatureOf(cfg *Config, hist *Histories, pc uint64) uint16 {
	sig := pc >> 2
	if cfg.UsePathHistory {
		sig ^= hist.Path()
	}
	if cfg.UseCondHistory {
		sig ^= hist.Cond()
	}
	if cfg.UseIndirectHistory {
		sig ^= hist.Indirect()
	}
	return uint16(policy.Mix64(sig))
}

// Signature returns the 16-bit hashed signature for pc under the
// current histories (paper Figure 5, line 6).
//
//chirp:hotpath
func (p *CHiRP) Signature(pc uint64) uint16 {
	return signatureOf(&p.cfg, p.seq.hist, pc)
}

// index maps a 16-bit signature onto the prediction table.
//
//chirp:hotpath
func (p *CHiRP) index(sig uint16) uint64 {
	return uint64(sig) & uint64(p.cfg.TableEntries-1)
}

// predict applies the dead threshold (paper Figure 5, procedure
// Predict) to the counter for sig, counting the table read.
//
//chirp:hotpath
func (p *CHiRP) predict(sig uint16) bool {
	p.reads++
	return p.table.Read(p.index(sig)) > p.cfg.DeadThreshold
}

// train moves sig's counter toward dead or live (paper Figure 5,
// procedure UpdatePredTable).
//
//chirp:hotpath
func (p *CHiRP) train(sig uint16, dead bool) {
	p.writes++
	if dead {
		p.table.Inc(p.index(sig))
	} else {
		p.table.Dec(p.index(sig))
	}
}

// OnAccess implements tlb.Policy. A demand access takes its signature
// pair from the sequencer (the Figure 5 signature under the pre-update
// histories, then the path push) or, in fed mode, from the last
// SetSignatures, and latches the selective-hit-update same-set
// condition.
//
// A prefetch fill (a.Prefetch, per the tlb.Policy contract) tags the
// entry the following OnInsert fills with the latched prefetch
// signature, in both modes. The contract puts the triggering access's
// PC on the fill and nothing touches the histories between that
// access and its fills, so the latched value is the signature of
// a.PC under the current histories. A prefetch is not part of the
// committed access stream: it neither pushes the path history nor
// disturbs the same-set latch that filters consecutive demand hits.
//
//chirp:hotpath
func (p *CHiRP) OnAccess(a *tlb.Access) {
	if a.Prefetch {
		p.curSig = p.pSig
		return
	}
	p.accesses++
	p.sameSet = p.haveSet && a.Set == p.lastSet
	p.lastSet, p.haveSet = a.Set, true
	if !p.extSigs {
		p.curSig, p.pSig = p.seq.OnAccess(a.PC)
	}
}

// BeginExternalSignatures implements tlb.SignatureFed: from now on the
// driver supplies the signature pair per access and the sequencer
// stays untouched (the driver delivers no branches either).
func (p *CHiRP) BeginExternalSignatures() { p.extSigs = true }

// SetSignatures implements tlb.SignatureFed with the pair
// SigSequencer.OnAccess returns for the next access: demand is the
// Figure 5 signature under the pre-access histories, prefetch the
// signature of the same PC after the access's own path push.
//
//chirp:hotpath
func (p *CHiRP) SetSignatures(demand, prefetch uint64) {
	p.curSig, p.pSig = uint16(demand), uint16(prefetch)
}

// OnHit implements tlb.Policy (paper Figure 5, lines 13–21 plus the
// §IV-D selective hit update): consecutive hits to the same set only
// refresh the entry's signature; otherwise, on the entry's first hit,
// the old signature trains toward live and the entry is re-predicted
// under the new signature.
//
//chirp:hotpath
func (p *CHiRP) OnHit(set uint32, way int, _ *tlb.Access) {
	p.rec.Touch(set, way)
	i := int(set)*p.ways + way
	if p.dead[i] {
		p.falseDead++
	}
	if p.cfg.SelectiveHitUpdate && p.sameSet {
		p.sig[i] = p.curSig
		return
	}
	if p.firstHit[i] || !p.cfg.FirstHitOnly {
		p.train(p.sig[i], false)
		p.dead[i] = p.predict(p.curSig)
		p.firstHit[i] = false
	}
	p.sig[i] = p.curSig
}

// Victim implements tlb.Policy (paper Figure 5, procedure
// VictimEntry): the first predicted-dead entry in way order, as
// Figure 5's loop scans, else the LRU entry, in which case the LRU
// victim's signature trains toward dead (lines 10–12: the entry just
// proved dead under that signature).
//
//chirp:hotpath
func (p *CHiRP) Victim(set uint32, _ *tlb.Access) int {
	base := int(set) * p.ways
	for w := 0; w < p.ways; w++ {
		if p.dead[base+w] {
			return w
		}
	}
	way := p.rec.LRU(set)
	p.train(p.sig[base+way], true)
	return way
}

// OnInsert implements tlb.Policy: tag the new entry with the access's
// signature, predict its fate from the table, and arm the first-hit
// training filter.
//
//chirp:hotpath
func (p *CHiRP) OnInsert(set uint32, way int, _ *tlb.Access) {
	p.rec.Touch(set, way)
	i := int(set)*p.ways + way
	p.sig[i] = p.curSig
	p.dead[i] = p.predict(p.curSig)
	if p.dead[i] {
		p.deadOnArrival++
	}
	p.firstHit[i] = true
}

// TableAccesses implements tlb.TableAccounting.
func (p *CHiRP) TableAccesses() (reads, writes uint64) { return p.reads, p.writes }

// Accesses returns how many TLB accesses the policy has observed.
func (p *CHiRP) Accesses() uint64 { return p.accesses }

// Storage describes CHiRP's hardware budget, reproducing Table I.
type Storage struct {
	PredictionBits int // 1 bit × entries
	SignatureBits  int // 16 bits × entries
	HistoryBits    int // 3 × 64-bit registers
	CounterBits    int // table entries × counter width
}

// TotalBits returns the summed budget.
func (s Storage) TotalBits() int {
	return s.PredictionBits + s.SignatureBits + s.HistoryBits + s.CounterBits
}

// TotalBytes returns the summed budget in bytes.
func (s Storage) TotalBytes() float64 { return float64(s.TotalBits()) / 8 }

// StorageFor computes the Table I budget for a TLB with entries
// entries under cfg.
func StorageFor(cfg Config, entries int) Storage {
	return Storage{
		PredictionBits: entries,
		SignatureBits:  16 * entries,
		HistoryBits:    3 * 64,
		CounterBits:    cfg.TableEntries * int(cfg.CounterBits),
	}
}

// DeadMarked reports whether the entry at (set, way) is currently
// predicted dead. Exposed for tests and diagnostic tooling.
func (p *CHiRP) DeadMarked(set uint32, way int) bool {
	return p.dead[int(set)*p.ways+way]
}

// TrainVictimDead applies the LRU-eviction training step (paper Figure
// 5, lines 10–12) for the entry at (set, way). External victim
// arbiters — like the mixed-page-size cost-aware wrapper — use it when
// they choose an LRU victim themselves instead of calling Victim.
func (p *CHiRP) TrainVictimDead(set uint32, way int) {
	p.train(p.sig[int(set)*p.ways+way], true)
}

// ForceDead overrides the dead mark of (set, way). Test and
// diagnostic hook only.
func (p *CHiRP) ForceDead(set uint32, way int, dead bool) {
	p.dead[int(set)*p.ways+way] = dead
}
