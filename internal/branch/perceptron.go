// Package branch implements the paper's branch prediction unit
// (Table II): a hashed perceptron direction predictor [Tarjan &
// Skadron, TACO 2005], a 4K-entry set-associative branch target
// buffer, and a global-history-hashed indirect target predictor. The
// timing model charges the 20-cycle penalty on any front-end
// misprediction.
package branch

// PerceptronConfig sizes the hashed perceptron predictor.
type PerceptronConfig struct {
	// Tables is the number of weight tables, each indexed by a hash of
	// the PC with a distinct segment of global history.
	Tables int
	// TableEntries is the rows per table (power of two).
	TableEntries int
	// HistoryBits is the global-history length hashed across tables.
	HistoryBits int
	// WeightMax bounds the signed weights (±WeightMax).
	WeightMax int
	// ThresholdScale sets the training threshold θ ≈ scale × Tables.
	ThresholdScale int
}

// DefaultPerceptronConfig returns an 8-table, 1K-row, 64-bit-history
// hashed perceptron comparable to the paper's "hashed perceptron"
// direction predictor.
func DefaultPerceptronConfig() PerceptronConfig {
	return PerceptronConfig{
		Tables:         8,
		TableEntries:   1024,
		HistoryBits:    64,
		WeightMax:      127,
		ThresholdScale: 18,
	}
}

// Perceptron is a hashed perceptron direction predictor.
type Perceptron struct {
	// weights is Tables rows of TableEntries weights, row-major.
	weights []int16
	history uint64

	// Derived from the configuration once, in NewPerceptron.
	tables  int
	entries int
	segBits uint   // history bits hashed into each table's index
	segMask uint64 // low segBits bits
	idxMask uint32 // TableEntries-1
	wmax    int    // weights saturate at ±wmax
	theta   int    // training threshold

	// Last prediction state, latched by Predict for Train: each
	// table's flat weight index and the weight sum.
	lastIdx [16]uint32
	lastSum int

	predictions uint64
	mispredicts uint64
}

// NewPerceptron builds the predictor.
func NewPerceptron(cfg PerceptronConfig) *Perceptron {
	if cfg.Tables <= 0 || cfg.Tables > 16 {
		panic("branch: perceptron needs 1..16 tables")
	}
	if cfg.TableEntries <= 0 || cfg.TableEntries&(cfg.TableEntries-1) != 0 {
		panic("branch: perceptron table entries must be a power of two")
	}
	seg := cfg.HistoryBits / cfg.Tables
	if seg == 0 {
		seg = 1
	}
	return &Perceptron{
		weights: make([]int16, cfg.Tables*cfg.TableEntries),
		tables:  cfg.Tables,
		entries: cfg.TableEntries,
		segBits: uint(seg),
		segMask: 1<<uint(seg) - 1,
		idxMask: uint32(cfg.TableEntries - 1),
		wmax:    cfg.WeightMax,
		theta:   cfg.ThresholdScale * cfg.Tables,
	}
}

// Predict returns the predicted direction for the conditional branch
// at pc and latches state for Train. Table t's row is a hash of the
// PC with history segment t.
//
//chirp:hotpath
func (p *Perceptron) Predict(pc uint64) bool {
	sum := 0
	for t := range p.lastIdx[:p.tables] {
		h := (p.history >> (uint(t) * p.segBits)) & p.segMask
		x := pc>>2 ^ h*0x9e3779b97f4a7c15 ^ uint64(t)<<57
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 32
		idx := uint32(t*p.entries) + uint32(x)&p.idxMask
		p.lastIdx[t] = idx
		sum += int(p.weights[idx])
	}
	p.lastSum = sum
	p.predictions++
	return sum >= 0
}

// Train updates the weights with the actual outcome of the branch last
// predicted and shifts the outcome into the global history. It returns
// whether the prediction was correct.
//
//chirp:hotpath
func (p *Perceptron) Train(taken bool) bool {
	correct := (p.lastSum >= 0) == taken
	if !correct {
		p.mispredicts++
	}
	if !correct || abs(p.lastSum) <= p.theta {
		for _, idx := range p.lastIdx[:p.tables] {
			w := &p.weights[idx]
			if taken {
				if int(*w) < p.wmax {
					*w++
				}
			} else {
				if int(*w) > -p.wmax {
					*w--
				}
			}
		}
	}
	bit := uint64(0)
	if taken {
		bit = 1
	}
	p.history = p.history<<1 | bit
	return correct
}

// Accuracy returns the fraction of correct direction predictions.
func (p *Perceptron) Accuracy() float64 {
	if p.predictions == 0 {
		return 0
	}
	return 1 - float64(p.mispredicts)/float64(p.predictions)
}

// Stats returns (predictions, mispredictions).
func (p *Perceptron) Stats() (predictions, mispredicts uint64) {
	return p.predictions, p.mispredicts
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
