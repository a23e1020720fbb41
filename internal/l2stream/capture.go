package l2stream

import (
	"errors"
	"fmt"

	"github.com/chirplab/chirp/internal/trace"
)

// ErrAbandoned reports a capture that made no stream for a reason of
// its own, not of its workload: its encoded events would exceed the
// byte budget (ErrOverBudget), or its staging file could not be
// created, written or completed. Callers fall back to the direct
// reference path (sim.RunTLBOnly over fresh sources), which needs no
// stream at all and gives the same results.
var ErrAbandoned = errors.New("l2stream: capture abandoned")

// ErrOverBudget reports a capture abandoned because its encoded events
// would exceed the byte budget. It matches ErrAbandoned.
var ErrOverBudget = fmt.Errorf("%w: its events exceed the byte budget", ErrAbandoned)

// Capture runs src once through the two LRU L1 TLB filters and records
// the policy-invariant L2 event stream. The record loop mirrors
// sim.RunTLBOnly exactly — per record: count instructions, check the
// warmup boundary, filter the instruction-side access, then the
// data-side access or branch, then check the instruction budget — so a
// replay over the captured events reproduces RunTLBOnly bit for bit.
//
// src is consumed like RunTLBOnly consumes it: until cfg.Instructions
// is reached, or exhaustion when cfg.Instructions is 0 (callers must
// bound infinite sources with trace.Limit, as usual). maxBytes caps the
// stream's encoded events (Stream.FootprintBytes); a capture whose
// events would exceed it stops and returns ErrOverBudget. maxBytes <= 0
// means unlimited. The events go to an unnamed temporary file in
// os.TempDir, which the stream holds until its Close; a file that
// cannot be created or written fails the capture with ErrAbandoned.
func Capture(src trace.Source, cfg Config, maxBytes int64) (*Stream, error) {
	w, err := stage(nil)
	if err != nil {
		return nil, err
	}
	defer w.discard()
	return capture(src, Key{Config: cfg}, maxBytes, w)
}

// capture is Capture into the staging file sink, which it completes
// as key's stream file (stagedStream.commit) once the source is done.
// A sink write error stops the capture with that error.
func capture(src trace.Source, key Key, maxBytes int64, sink *stagedStream) (*Stream, error) {
	cfg := key.Config
	// The L1s are always LRU (that fixed choice is what makes the
	// stream policy-invariant in the first place), so the capture path
	// runs the specialized membership filter instead of two full
	// tlb.TLB simulations; the hit/miss sequence is identical.
	l1i, err := newL1Filter(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := newL1Filter(cfg.L1D)
	if err != nil {
		return nil, err
	}

	pageShift := cfg.PageShift
	warmupAt := uint64(float64(cfg.Instructions) * cfg.WarmupFraction)
	if cfg.Instructions == 0 {
		warmupAt = 0 // unbounded runs measure everything
	}

	s := &Stream{cfg: cfg, warmupAt: warmupAt, warmed: warmupAt == 0}
	var (
		enc          = encoder{sink: sink}
		instructions uint64
		warmI, warmD uint64 // L1 miss counts at the warmup boundary
	)

	bs := trace.Blocks(src)
	var buf [trace.DefaultBlockSize]trace.Record
loop:
	for {
		n := bs.NextBlock(buf[:])
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			rec := &buf[i]
			s.records++
			instructions += rec.Instructions()
			if !s.warmed && instructions >= warmupAt {
				s.warmed = true
				s.warmInstrAt = instructions
				warmI, warmD = l1i.misses, l1d.misses
				enc.warmup()
				s.events++
			}

			if !l1i.access(rec.PC >> pageShift) {
				enc.access(rec.PC, rec.PC>>pageShift, true)
				s.events++
				s.accesses++
			}
			switch {
			case rec.Class.IsMemory():
				if !l1d.access(rec.EA >> pageShift) {
					enc.access(rec.PC, rec.EA>>pageShift, false)
					s.events++
					s.accesses++
				}
			case rec.Class.IsBranch():
				enc.branch(rec.PC,
					rec.Class == trace.ClassCondBranch,
					rec.Class == trace.ClassUncondIndirect,
					rec.Taken, rec.Target)
				s.events++
			}
			if cfg.Instructions > 0 && instructions >= cfg.Instructions {
				break loop
			}
		}
		if maxBytes > 0 && int64(enc.size()) > maxBytes {
			return nil, ErrOverBudget
		}
		if sink.err != nil {
			return nil, sink.err
		}
	}
	if maxBytes > 0 && int64(enc.size()) > maxBytes {
		return nil, ErrOverBudget
	}
	s.size = enc.finish()
	s.instructions = instructions
	if s.warmed {
		s.l1iMisses = l1i.misses - warmI
		s.l1dMisses = l1d.misses - warmD
	}
	if err := sink.commit(key, s); err != nil {
		return nil, err
	}
	return s, nil
}
