package core

import "fmt"

// SigSequencer is the only code that turns the committed branch and
// access stream into CHiRP signatures, without any TLB or prediction
// state: feed it the branches and demand accesses in stream order and
// it produces, per access, the demand signature under the pre-access
// histories and the prefetch signature after the access's own path
// push. A live CHiRP runs one as its history state, and the replay
// driver runs one over a captured stream to build the signature view
// it feeds a CHiRP in fed mode, so the two modes agree by
// construction.
//
// The produced sequence depends only on the event stream and on the
// signature-relevant subset of Config (see SignatureKey), which makes
// it a valid l2stream derived view shared by every CHiRP variant that
// agrees on those knobs.
type SigSequencer struct {
	cfg  Config
	hist *Histories
}

// NewSigSequencer builds a sequencer for cfg's signature configuration.
func NewSigSequencer(cfg Config) *SigSequencer {
	return &SigSequencer{cfg: cfg, hist: NewHistories(cfg.History)}
}

// OnBranch records a committed branch: conditional branches feed the
// conditional history, unconditional indirect branches the indirect
// history (paper Figure 5, lines 23–26), each when its feature is on.
// Direct unconditional branches do not enter the signature.
//
//chirp:hotpath
func (q *SigSequencer) OnBranch(pc uint64, conditional, indirect bool) {
	switch {
	case conditional:
		if q.cfg.UseCondHistory {
			q.hist.PushCond(pc)
		}
	case indirect:
		if q.cfg.UseIndirectHistory {
			q.hist.PushIndirect(pc)
		}
	}
}

// OnAccess consumes one demand access and returns its signature pair:
// sig is the Figure 5 signature computed before the path push (what
// the demand access itself uses), psig the signature of the same PC
// after the push (what a prefetch fill triggered by this access would
// compute — branch events never interleave between an access and its
// prefetch fills, so the post-push histories are exactly the fill-time
// histories).
//
//chirp:hotpath
func (q *SigSequencer) OnAccess(pc uint64) (sig, psig uint16) {
	sig = signatureOf(&q.cfg, q.hist, pc)
	if q.cfg.UsePathHistory {
		q.hist.PushAccess(pc)
	}
	psig = signatureOf(&q.cfg, q.hist, pc)
	return sig, psig
}

// SignatureKey returns the invalidation key fragment for cfg's
// signature sequence: every knob the sequence depends on — history
// geometry and feature switches — and nothing else, so CHiRP variants
// that differ only in table size, thresholds, or victim selection
// share one derived view.
func (c Config) SignatureKey() string {
	return fmt.Sprintf("cs1:p%d.%t:b%d:f%t%t%t",
		c.History.PathLength, c.History.PathLeadingZeros, c.History.BranchLength,
		c.UsePathHistory, c.UseCondHistory, c.UseIndirectHistory)
}
