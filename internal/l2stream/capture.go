package l2stream

import (
	"fmt"
	"os"

	"github.com/chirplab/chirp/internal/trace"
)

// CaptureOptions bounds a capture.
type CaptureOptions struct {
	// MaxBytes caps the stream's encoded buffer (Stream.FootprintBytes);
	// a capture whose buffer would exceed it restarts and spills the raw
	// record prefix to a CHTR file instead. <= 0 means unlimited (never
	// spill).
	MaxBytes int64
	// SpillDir is where spill files are created ("" = the OS temp dir).
	SpillDir string
}

// Capture runs src once through the two LRU L1 TLB filters and records
// the policy-invariant L2 event stream. The record loop mirrors
// sim.RunTLBOnly exactly — per record: count instructions, check the
// warmup boundary, filter the instruction-side access, then the
// data-side access or branch, then check the instruction budget — so a
// replay over the captured events reproduces RunTLBOnly bit for bit.
//
// src is consumed like RunTLBOnly consumes it: until cfg.Instructions
// is reached, or exhaustion when cfg.Instructions is 0 (callers must
// bound infinite sources with trace.Limit, as usual). On byte-budget
// overflow src.Reset is called and the same record prefix is written
// to a spill file instead.
func Capture(src trace.Source, cfg Config, opts CaptureOptions) (*Stream, error) {
	s, overflow, err := capture(src, cfg, opts.MaxBytes, nil)
	if err != nil {
		return nil, err
	}
	if !overflow {
		return s, nil
	}

	// Spill: re-run the capture pass from the top, writing the raw
	// record prefix through the CHTR trace writer instead of encoding
	// events. The file holds exactly the records RunTLBOnly would
	// consume, so replaying it is a direct run by construction.
	src.Reset()
	f, err := os.CreateTemp(opts.SpillDir, "l2stream-*.chtr")
	if err != nil {
		return nil, fmt.Errorf("l2stream: creating spill file: %w", err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	s, _, err = capture(src, cfg, 0, w)
	if err == nil {
		err = w.Close()
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	s.spillPath = f.Name()
	return s, nil
}

// capture is the single-pass worker behind Capture. With spill nil it
// encodes events in memory, reporting overflow=true (and a nil stream)
// as soon as the encoded buffer passes maxBytes; with spill non-nil it
// writes each consumed record to the spill writer and keeps only the
// run scalars.
func capture(src trace.Source, cfg Config, maxBytes int64, spill *trace.Writer) (*Stream, bool, error) {
	// The L1s are always LRU (that fixed choice is what makes the
	// stream policy-invariant in the first place), so the capture path
	// runs the specialized membership filter instead of two full
	// tlb.TLB simulations; the hit/miss sequence is identical.
	l1i, err := newL1Filter(cfg.L1I)
	if err != nil {
		return nil, false, err
	}
	l1d, err := newL1Filter(cfg.L1D)
	if err != nil {
		return nil, false, err
	}

	pageShift := cfg.PageShift
	warmupAt := uint64(float64(cfg.Instructions) * cfg.WarmupFraction)
	if cfg.Instructions == 0 {
		warmupAt = 0 // unbounded runs measure everything
	}

	s := &Stream{cfg: cfg, warmupAt: warmupAt, warmed: warmupAt == 0}
	var (
		enc          encoder
		instructions uint64
		warmI, warmD uint64 // L1 miss counts at the warmup boundary
	)
	if spill == nil {
		enc.buf = make([]byte, 0, 64<<10)
	}

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
			if spill != nil {
				if err := spill.Write(rec); err != nil {
					return nil, false, err
				}
			}
			s.records++
			instructions += rec.Instructions()
			if !s.warmed && instructions >= warmupAt {
				s.warmed = true
				s.warmInstrAt = instructions
				warmI, warmD = l1i.misses, l1d.misses
				if spill == nil {
					enc.warmup()
					s.events++
				}
			}

			if !l1i.access(rec.PC>>pageShift) && spill == nil {
				enc.access(rec.PC, rec.PC>>pageShift, true)
				s.events++
				s.accesses++
			}
			switch {
			case rec.Class.IsMemory():
				if !l1d.access(rec.EA>>pageShift) && spill == nil {
					enc.access(rec.PC, rec.EA>>pageShift, false)
					s.events++
					s.accesses++
				}
			case rec.Class.IsBranch():
				if spill == nil {
					enc.branch(rec.PC,
						rec.Class == trace.ClassCondBranch,
						rec.Class == trace.ClassUncondIndirect,
						rec.Taken, rec.Target)
					s.events++
				}
			}
			if cfg.Instructions > 0 && instructions >= cfg.Instructions {
				break loop
			}
		}
		if maxBytes > 0 && int64(len(enc.buf)) > maxBytes {
			return nil, true, nil
		}
	}
	if maxBytes > 0 && int64(len(enc.buf)) > maxBytes {
		return nil, true, nil
	}

	s.instructions = instructions
	if s.warmed {
		s.l1iMisses = l1i.misses - warmI
		s.l1dMisses = l1d.misses - warmD
	}
	s.buf = enc.buf
	return s, false, nil
}
