package core

import (
	"math/rand"
	"testing"

	"github.com/chirplab/chirp/internal/tlb"
)

// TestSigSequencerMatchesLivePolicy is the property the derived
// signature view rests on: over an arbitrary interleaving of committed
// branches and demand accesses, the sequencer's (sig, psig) pair must
// equal what a live CHiRP computes for the demand access and for a
// prefetch fill it triggers. The live side is driven exactly as the
// TLB drives it — OnBranch plus OnAccess — and compared through its
// cached per-access signature.
func TestSigSequencerMatchesLivePolicy(t *testing.T) {
	configs := map[string]func(*Config){
		"default":      func(*Config) {},
		"no-path":      func(c *Config) { c.UsePathHistory = false },
		"no-cond":      func(c *Config) { c.UseCondHistory = false },
		"no-indirect":  func(c *Config) { c.UseIndirectHistory = false },
		"short-hist":   func(c *Config) { c.History.PathLength = 4; c.History.BranchLength = 2 },
		"no-lead-zero": func(c *Config) { c.History.PathLeadingZeros = false },
	}
	for name, mut := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			mut(&cfg)
			p := MustNew(cfg)
			p.Attach(64, 8)
			q := NewSigSequencer(cfg)

			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 20000; i++ {
				pc := rng.Uint64() & 0xffff_ffff
				if rng.Intn(3) == 0 {
					conditional := rng.Intn(2) == 0
					indirect := !conditional && rng.Intn(2) == 0
					p.OnBranch(pc, conditional, indirect, rng.Intn(2) == 0, rng.Uint64())
					q.OnBranch(pc, conditional, indirect)
					continue
				}
				sig, psig := q.OnAccess(pc)
				a := tlb.Access{PC: pc, VPN: rng.Uint64() & 0xfffff, Set: uint32(i % 64)}
				p.OnAccess(&a)
				if p.curSig != sig {
					t.Fatalf("event %d: demand signature %#x, live policy computed %#x", i, sig, p.curSig)
				}
				pa := tlb.Access{PC: pc, VPN: a.VPN + 1, Set: a.Set, Prefetch: true}
				p.OnAccess(&pa)
				if p.curSig != psig {
					t.Fatalf("event %d: prefetch signature %#x, live policy computed %#x", i, psig, p.curSig)
				}
				// The latched prefetch signature is the signature of the
				// triggering PC under the post-access histories.
				if got := p.Signature(pc); got != psig {
					t.Fatalf("event %d: latched prefetch signature %#x, Signature recomputes %#x", i, psig, got)
				}
			}
		})
	}
}

// TestSignatureKeySensitivity: the derived-view key must separate every
// configuration the signature sequence depends on, and nothing else.
func TestSignatureKeySensitivity(t *testing.T) {
	base := DefaultConfig()
	distinct := []func(*Config){
		func(c *Config) { c.History.PathLength = 4 },
		func(c *Config) { c.History.PathLeadingZeros = !c.History.PathLeadingZeros },
		func(c *Config) { c.History.BranchLength = 2 },
		func(c *Config) { c.UsePathHistory = false },
		func(c *Config) { c.UseCondHistory = false },
		func(c *Config) { c.UseIndirectHistory = false },
	}
	seen := map[string]bool{base.SignatureKey(): true}
	for i, mut := range distinct {
		c := base
		mut(&c)
		key := c.SignatureKey()
		if seen[key] {
			t.Errorf("mutation %d: signature-relevant change did not change SignatureKey %q", i, key)
		}
		seen[key] = true
	}
	// Knobs outside the signature computation must share the view.
	c := base
	c.TableEntries = 512
	c.CounterBits = 3
	c.SelectiveHitUpdate = !c.SelectiveHitUpdate
	if c.SignatureKey() != base.SignatureKey() {
		t.Errorf("signature-irrelevant knobs changed SignatureKey: %q vs %q", c.SignatureKey(), base.SignatureKey())
	}
}
