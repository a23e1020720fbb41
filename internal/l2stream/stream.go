// Package l2stream captures the policy-invariant event stream an L2
// TLB policy observes — demand accesses that missed the L1 TLBs,
// committed branches, and the warmup boundary — so an N-policy sweep
// pays trace generation and L1 filtering once per workload instead of
// once per (workload, policy) cell.
//
// The invariance argument: the paper holds the L1 TLBs fixed at LRU
// (Table II), and nothing below the L1s feeds back into them, so the
// sequence of L2 demand accesses and the interleaved branch stream are
// identical for every L2 replacement policy. Capture runs the
// generator and the two L1 filters once and encodes that shared
// sequence; sim.ReplayMulti then drives any number of L2 policies
// over it, bit-identical to sim.RunTLBOnly.
//
// Streams are delta-encoded (a few bytes per event), and each stream's
// encoded events live in exactly one place, a file: the capture writes
// them chunk by chunk into a staging file, and the stream then keeps
// that file open and reads it with pread. With a capture store the
// file is renamed into the store; without one it is an unnamed
// temporary file, unlinked as soon as it is created, which the
// stream's Close releases. Derived-view builds decode the file in
// DecodeBlockSize blocks, and a sim replay pass builds every view it
// lacks in one such pass; nothing else reads the events. A capture
// whose encoded events would exceed the byte cap, or whose staging
// file fails, stops with ErrAbandoned; its callers run the direct
// reference path instead.
package l2stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/chirplab/chirp/internal/tlb"
)

// Config identifies the policy-invariant part of a TLB-only run: the
// L1 geometries, the L2 page size, and the instruction/warmup budget.
// Two runs with equal Configs share the same captured stream no matter
// which L2 policy, L2 geometry, or prefetch distance they use, so
// Config is part of the capture key (Key). It is comparable.
type Config struct {
	// L1I and L1D are the L1 TLB geometries (always LRU).
	L1I, L1D tlb.Config
	// PageShift is the L2 TLB's page-size shift (VPN = address >> shift).
	PageShift uint
	// Instructions bounds the committed instruction count. 0 drains
	// the source, which holds only for a direct Capture over a finite
	// source.
	Instructions uint64
	// WarmupFraction of instructions warms structures before measurement.
	WarmupFraction float64
}

// EventKind discriminates the replay events.
type EventKind uint8

const (
	// EventInstrAccess is an instruction-side L2 demand access; the VPN
	// is the fetch page (PC >> PageShift).
	EventInstrAccess EventKind = iota
	// EventDataAccess is a data-side L2 demand access.
	EventDataAccess
	// EventBranch is a committed branch (for BranchObserver policies).
	EventBranch
	// EventWarmup marks the warmup boundary: replay snapshots its L2
	// statistics exactly here, mirroring RunTLBOnly's per-record check.
	EventWarmup
)

// Event is one decoded stream event.
type Event struct {
	Kind   EventKind
	PC     uint64
	VPN    uint64 // access events only
	Target uint64 // branch events only
	// Conditional/Indirect/Taken qualify branch events, matching the
	// tlb.BranchObserver.OnBranch signature.
	Conditional bool
	Indirect    bool
	Taken       bool
}

// Encoding: each event is a tag byte followed by fixed-width
// little-endian payloads whose widths the tag records, so a decoder
// knows where the next event starts from the tag alone instead of
// walking varint continuation bits. The tag's low 3 bits are the wire
// kind and bit 3 is the branch-taken flag; bits 4-5 code the PC
// payload's width and bits 6-7 the auxiliary payload's (wirePCWidths,
// wireAuxWidths). Payloads are zigzag-encoded signed deltas, each in
// the narrowest width its code table offers. PCs are deltas against the
// previous event's PC (shared across kinds: consecutive events come
// from nearby code). Data-access VPNs are deltas against the previous
// data VPN; instruction-access VPNs are derived from the PC and not
// stored. Branch targets are deltas against the branch's own PC.
// Instruction accesses carry no auxiliary payload, and the warmup
// marker is a bare tag.
const (
	wireInstrAccess = 0
	wireDataAccess  = 1
	wireCondBranch  = 2
	wireDirBranch   = 3
	wireIndBranch   = 4
	wireWarmup      = 5

	wireKindMask = 0x07
	wireTaken    = 1 << 3
	wirePCShift  = 4
	wireAuxShift = 6
)

// Payload width codes. PC deltas almost always fit 3 bytes; VPN and
// target deltas range wider. The last code of each table holds any
// delta.
var (
	wirePCWidths  = [4]uint8{1, 2, 3, 8}
	wireAuxWidths = [4]uint8{1, 2, 4, 8}
)

// tagLayout is what a tag byte tells the decoder: the event's total
// encoded size (0 for tags no valid event uses) and its payload widths.
type tagLayout struct{ size, pcWidth, auxWidth uint8 }

// wireLayouts is the decoder's tag table. Only the tags the encoder
// emits are valid — branch-taken and width bits on a kind that has no
// use for them read as corruption.
var wireLayouts = func() (t [256]tagLayout) {
	for tag := range t {
		kind := tag & wireKindMask
		pc := wirePCWidths[tag>>wirePCShift&3]
		aux := wireAuxWidths[tag>>wireAuxShift]
		switch {
		case kind == wireWarmup && tag == wireWarmup:
			t[tag] = tagLayout{size: 1}
		case kind == wireInstrAccess && tag>>wireAuxShift == 0 && tag&wireTaken == 0:
			t[tag] = tagLayout{size: 1 + pc, pcWidth: pc}
		case kind == wireDataAccess && tag&wireTaken == 0,
			kind == wireCondBranch, kind == wireDirBranch, kind == wireIndBranch:
			t[tag] = tagLayout{size: 1 + pc + aux, pcWidth: pc, auxWidth: aux}
		}
	}
	return t
}()

// widthMasks[w] keeps the low w bytes of a word.
var widthMasks = [9]uint64{0, 0xff, 0xffff, 0xffffff, 0xffffffff,
	0xffffffffff, 0xffffffffffff, 0xffffffffffffff, ^uint64(0)}

// zigzag maps a signed delta (as its two's-complement bits) to an
// unsigned value with small magnitudes near zero; unzigzag inverts it.
func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// widthCode returns the code of the narrowest width in widths that
// holds u.
func widthCode(u uint64, widths *[4]uint8) byte {
	for c, w := range widths[:3] {
		if u < 1<<(8*w) {
			return byte(c)
		}
	}
	return 3
}

// encodeChunkSize is the length of the chunk the capture encoder
// fills. Each full chunk is written to the capture's staging file and
// the same buffer is refilled, so a capture's events never sit on the
// heap beyond one chunk. A chunk ends before an event that would not
// fit it.
const encodeChunkSize = 64 << 10

// decodeWindowSize is how much of a store file a decoder reads per
// pread: large enough that the syscalls vanish in the decode time,
// small enough to be negligible beside the views a pass builds.
const decodeWindowSize = 256 << 10

// maxEventBytes bounds what one event may take of a chunk: a tag and
// two payloads, each of which put stages as a full 8-byte word.
const maxEventBytes = 1 + 8 + 8

// encoder appends tagged delta events to a fixed-size chunk, which
// goes to sink each time it fills.
type encoder struct {
	sink    *stagedStream
	full    int    // bytes written to sink
	buf     []byte // the chunk being filled
	lastPC  uint64
	lastVPN uint64
}

// reserve makes room for one more event in the current chunk.
func (e *encoder) reserve() {
	if cap(e.buf)-len(e.buf) >= maxEventBytes {
		return
	}
	if len(e.buf) > 0 {
		e.flush()
	}
	if e.buf == nil {
		e.buf = make([]byte, 0, encodeChunkSize)
	}
}

// flush writes the current chunk to the sink and empties it.
func (e *encoder) flush() {
	e.full += len(e.buf)
	e.sink.write(e.buf)
	e.buf = e.buf[:0]
}

// size returns the encoded stream's length so far.
func (e *encoder) size() int { return e.full + len(e.buf) }

// finish writes the last, partly filled chunk to the sink and returns
// the stream's total length.
func (e *encoder) finish() int64 {
	if len(e.buf) > 0 {
		e.flush()
	}
	e.buf = nil
	return int64(e.full)
}

// event appends one event: the tag with its width codes filled in, the
// PC delta against the previous event, and — when hasAux — the
// auxiliary delta.
func (e *encoder) event(tag byte, pc, aux uint64, hasAux bool) {
	e.reserve()
	p := zigzag(pc - e.lastPC)
	e.lastPC = pc
	pcCode := widthCode(p, &wirePCWidths)
	tag |= pcCode << wirePCShift
	var a uint64
	var auxCode byte
	if hasAux {
		a = zigzag(aux)
		auxCode = widthCode(a, &wireAuxWidths)
		tag |= auxCode << wireAuxShift
	}
	e.buf = append(e.buf, tag)
	e.put(p, wirePCWidths[pcCode])
	if hasAux {
		e.put(a, wireAuxWidths[auxCode])
	}
}

// put appends the low width bytes of u, little-endian.
func (e *encoder) put(u uint64, width uint8) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, u)
	e.buf = e.buf[:len(e.buf)-8+int(width)]
}

func (e *encoder) access(pc, vpn uint64, instr bool) {
	if instr {
		e.event(wireInstrAccess, pc, 0, false)
		return
	}
	e.event(wireDataAccess, pc, vpn-e.lastVPN, true)
	e.lastVPN = vpn
}

func (e *encoder) branch(pc uint64, conditional, indirect, taken bool, target uint64) {
	tag := byte(wireDirBranch)
	if conditional {
		tag = wireCondBranch
	} else if indirect {
		tag = wireIndBranch
	}
	if taken {
		tag |= wireTaken
	}
	e.event(tag, pc, target-pc, true)
}

func (e *encoder) warmup() {
	e.reserve()
	e.buf = append(e.buf, wireWarmup)
}

// Decoder iterates a captured stream's file. It is single-use and not safe for concurrent use; take
// one Decoder per replay. Decoders of one stream share nothing: each
// reads the file at its own offsets.
type Decoder struct {
	buf       []byte // the window being decoded: bytes read from the file
	pos       int
	base      int64 // stream offset of buf[0], for error messages
	lastPC    uint64
	lastVPN   uint64
	pageShift uint
	err       error

	// What follows buf: the rest of the file's event section, read
	// into win from offset off. A decode folds every byte it reads
	// into crc and checks it against wantCRC once the last byte is in.
	file         *io.SectionReader
	off          int64
	win          []byte
	crc, wantCRC uint32
}

// Next fills ev with the next event and reports whether one was
// available; every field the event's Kind does not use is zero.
// Decoding errors stop the stream; check Err afterwards.
func (d *Decoder) Next(ev *Event) bool {
	var blk [1]Event
	if d.nextBlock(blk[:], false) == 0 {
		return false
	}
	*ev = blk[0]
	return true
}

// DecodeBlockSize is the block length the replay and view-build loops
// decode in: large enough to amortize the per-call decoder state
// load/store, small enough that a block of Events stays in L1 cache
// (and on the caller's stack) between decode and use.
const DecodeBlockSize = 256

// NextBlock decodes up to len(evs) events and returns how many it
// produced; 0 means the stream is exhausted (or broken — check Err).
// It is the bulk counterpart of Next for replay loops: decode state
// stays in locals and — unlike Next — each event's fields are stored
// selectively, so only the fields meaningful for the decoded Kind are
// valid (an access event's Target, say, holds whatever the buffer held
// before). Consumers must switch on Kind before touching the rest,
// which every replay loop does anyway.
func (d *Decoder) NextBlock(evs []Event) int { return d.nextBlock(evs, false) }

// NextAccessBlock is NextBlock restricted to the access-and-warmup
// subsequence — the branch-free view that the replay view and the
// policies that ignore branches consume. Branch events still advance
// the PC delta chain, but nothing is stored for them; they outnumber
// L2 demand accesses by an order of magnitude on branchy workloads.
func (d *Decoder) NextAccessBlock(evs []Event) int { return d.nextBlock(evs, true) }

// nextBlock is the block decoder behind Next, NextBlock and
// NextAccessBlock: it decodes the current window and moves on to the
// next one until evs is full or the stream ends.
func (d *Decoder) nextBlock(evs []Event, accessesOnly bool) int {
	n := 0
	for d.err == nil {
		n += d.decodeWindow(evs[n:], accessesOnly)
		if n == len(evs) || !d.refill() {
			break
		}
	}
	return n
}

// decodeWindow decodes events from the current window into evs until
// evs is full, the window is used up, or the window's last event is
// cut off by its end (refill carries that event over). An event's
// position depends only on the previous tag (wireLayouts), and
// payloads are fixed-width loads, so decoding one event never waits on
// the arithmetic of the last; accessesOnly is fixed for a call, so its
// per-event test predicts perfectly.
//
//chirp:hotpath
func (d *Decoder) decodeWindow(evs []Event, accessesOnly bool) int {
	buf, pos := d.buf, d.pos
	lastPC, lastVPN := d.lastPC, d.lastVPN
	shift := d.pageShift
	n := 0
	for n < len(evs) && pos < len(buf) {
		tag := buf[pos]
		l := &wireLayouts[tag]
		if l.size == 0 {
			d.badTag(tag, d.base+int64(pos))
			break
		}
		if pos+int(l.size) > len(buf) {
			break
		}
		ev := &evs[n]
		kind := tag & wireKindMask
		if kind == wireWarmup {
			ev.Kind = EventWarmup
			pos++
			n++
			continue
		}
		lastPC += unzigzag(loadWord(buf, pos+1) & widthMasks[l.pcWidth])
		aux := unzigzag(loadWord(buf, pos+1+int(l.pcWidth)) & widthMasks[l.auxWidth])
		pos += int(l.size)
		switch kind {
		case wireInstrAccess:
			ev.Kind = EventInstrAccess
			ev.PC = lastPC
			ev.VPN = lastPC >> shift
		case wireDataAccess:
			lastVPN += aux
			ev.Kind = EventDataAccess
			ev.PC = lastPC
			ev.VPN = lastVPN
		default: // a branch; wireLayouts admits no other kind
			if accessesOnly {
				continue
			}
			ev.Kind = EventBranch
			ev.PC = lastPC
			ev.Target = lastPC + aux
			ev.Conditional = kind == wireCondBranch
			ev.Indirect = kind == wireIndBranch
			ev.Taken = tag&wireTaken != 0
		}
		n++
	}
	d.pos, d.lastPC, d.lastVPN = pos, lastPC, lastVPN
	return n
}

// refill moves the decoder to its next window and reports whether it
// has one. A window starts with the bytes of the event the last one
// cut off; bytes left over at the stream's end are a truncated event.
func (d *Decoder) refill() bool {
	if d.err != nil {
		return false
	}
	rest := d.buf[d.pos:]
	if d.file != nil && d.off < d.file.Size() {
		k := copy(d.win, rest)
		want := int(min(int64(len(d.win)-k), d.file.Size()-d.off))
		m, err := d.file.ReadAt(d.win[k:k+want], d.off)
		if m < want {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			d.err = fmt.Errorf("l2stream: reading stream file: %w", err)
			return false
		}
		d.crc = crc32.Update(d.crc, castagnoli, d.win[k:k+m])
		d.off += int64(m)
		if d.off == d.file.Size() && d.crc != d.wantCRC {
			d.err = errors.New("l2stream: corrupt stream: the store file's events fail its checksum")
			return false
		}
		d.base += int64(d.pos)
		d.buf, d.pos = d.win[:k+m], 0
		return true
	}
	if len(rest) > 0 {
		d.truncated(d.base + int64(d.pos))
	}
	return false
}

// loadWord returns the 8 bytes at buf[pos:] as a little-endian word,
// zero-filled past the end of buf.
func loadWord(buf []byte, pos int) uint64 {
	if pos+8 <= len(buf) {
		return binary.LittleEndian.Uint64(buf[pos:])
	}
	return loadTail(buf, pos)
}

func loadTail(buf []byte, pos int) uint64 {
	var w uint64
	for i := 0; pos+i < len(buf); i++ {
		w |= uint64(buf[pos+i]) << (8 * i)
	}
	return w
}

// truncated and badTag record a decode failure. They sit outside the
// block decoder so the error formatting stays off the hot path.
func (d *Decoder) truncated(pos int64) {
	d.err = fmt.Errorf("l2stream: corrupt stream: event at offset %d runs past the end of the stream", pos)
}

func (d *Decoder) badTag(tag byte, pos int64) {
	d.err = fmt.Errorf("l2stream: corrupt stream: invalid event tag %#02x at offset %d", tag, pos)
}

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Stream is one captured workload stream: its encoded events plus the
// policy-invariant run scalars (instruction totals, warmup position,
// L1 miss counts) that every replay shares. The events live in one
// place, the stream's file: a capture writes them to a staging file as
// they are encoded, and the stream holds that file open once it is
// complete. A capture into a capture store renames it into the store
// (a stream loaded from the store holds its file too); any other
// capture's file was unlinked when it was created, so it has no name
// and vanishes with its last descriptor. Besides
// its events a stream holds nothing: its derived views are read in
// blocks from their sidecars or built in blocks by a decode pass
// (derived.go), and replay results are its caller's to keep.
// Streams are immutable once captured and safe for concurrent
// replays. A stream is released by Close, or by the garbage collector
// when it is dropped.
type Stream struct {
	cfg Config

	// The encoded events: size bytes of file from offset
	// storeHeaderSize on. A decode checks the bytes it reads against
	// fileCRC, the file's checksum, which covers the header scalars
	// (scalarsCRC) and then the events.
	file                *os.File
	size                int64
	scalarsCRC, fileCRC uint32

	// store and key locate the stream's derived sidecars (derived.go);
	// store is nil for a stream that belongs to no capture store. Both
	// are set once, before the stream is shared.
	store *store
	key   Key

	records      uint64
	instructions uint64
	events       uint64
	accesses     uint64

	warmed      bool
	warmupAt    uint64
	warmInstrAt uint64
	l1iMisses   uint64 // post-warmup
	l1dMisses   uint64 // post-warmup
}

// Config returns the capture configuration the stream was built under.
func (s *Stream) Config() Config { return s.cfg }

// Spilled always reports false: captures over the byte cap fail
// with ErrOverBudget instead of spilling to disk. It remains only
// because the benchmark harness (bench/traced.go) still calls it; the
// next benchmark re-anchor removes both.
func (s *Stream) Spilled() bool { return false }

// Records returns how many trace records the capture consumed.
func (s *Stream) Records() uint64 { return s.records }

// Instructions returns the total committed instruction count.
func (s *Stream) Instructions() uint64 { return s.instructions }

// Events returns the captured event count.
func (s *Stream) Events() uint64 { return s.events }

// Accesses returns the L2 demand access count.
func (s *Stream) Accesses() uint64 { return s.accesses }

// Warmed reports whether the capture reached the warmup boundary.
func (s *Stream) Warmed() bool { return s.warmed }

// WarmupAt returns the configured warmup boundary in instructions.
func (s *Stream) WarmupAt() uint64 { return s.warmupAt }

// WarmupInstructions returns the instruction count at which the warmup
// snapshot fired (the first record boundary at or past WarmupAt).
func (s *Stream) WarmupInstructions() uint64 { return s.warmInstrAt }

// L1IMisses returns the post-warmup L1 instruction-TLB miss count.
func (s *Stream) L1IMisses() uint64 { return s.l1iMisses }

// L1DMisses returns the post-warmup L1 data-TLB miss count.
func (s *Stream) L1DMisses() uint64 { return s.l1dMisses }

// Decode returns a fresh event iterator over the stream. Each call is
// one decode pass, counted in chirp_l2stream_decode_passes_total. A
// pass over the store file reads it through its own window, so passes
// may run concurrently, and fails with a corrupt-stream error once it
// has read every byte if the file no longer matches its checksum.
func (s *Stream) Decode() *Decoder { return s.DecodeViews(0) }

// DecodeViews is Decode for a pass that builds views derived views
// from the events; each is counted in
// chirp_l2stream_derived_builds_total.
func (s *Stream) DecodeViews(views int) *Decoder {
	obsDecodePasses.Inc()
	obsDerivedBuilds.Add(uint64(views))
	return s.decoder(decodeWindowSize)
}

// decoder returns a decoder that reads the stream's file window bytes
// at a time (or all at once, when it is shorter); window must exceed
// maxEventBytes.
func (s *Stream) decoder(window int) *Decoder {
	return &Decoder{
		pageShift: s.cfg.PageShift,
		file:      io.NewSectionReader(s.file, storeHeaderSize, s.size),
		win:       make([]byte, min(int64(window), max(s.size, maxEventBytes+1))),
		crc:       s.scalarsCRC,
		wantCRC:   s.fileCRC,
	}
}

// Close releases the stream's file; decoding the stream afterwards
// fails, and an unnamed file's blocks are freed. A dropped stream
// needs no Close: its file is an *os.File, which the garbage collector
// closes once it is unreachable. Close makes the release prompt;
// owners that outlive their stream (an engine job, a RunMulti call)
// call it when they are done.
func (s *Stream) Close() error { return s.file.Close() }

// FootprintBytes is the stream's encoded event size: the bytes a
// capture cap is checked against, all of them in the stream's file.
func (s *Stream) FootprintBytes() int64 { return s.size }
