package l2stream

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
)

func testConfig(instructions uint64) Config {
	return Config{
		L1I:            tlb.Config{Name: "L1 iTLB", Entries: 16, Ways: 4, PageShift: 12},
		L1D:            tlb.Config{Name: "L1 dTLB", Entries: 16, Ways: 4, PageShift: 12},
		PageShift:      12,
		Instructions:   instructions,
		WarmupFraction: 0.5,
	}
}

// testRecords synthesises a deterministic mixed trace that pressures
// the small test L1s: strided loads over many pages, branches, skips.
func testRecords(n int) []trace.Record {
	rng := trace.NewRNG(7)
	recs := make([]trace.Record, n)
	pc := uint64(0x400000)
	for i := range recs {
		pc += uint64(4 * (1 + rng.Intn(8)))
		if pc > 0x500000 {
			pc = 0x400000 // wrap so the code footprint cycles the L1I
		}
		cls := trace.Class(rng.Intn(trace.NumClasses))
		rec := trace.Record{PC: pc, Class: cls, Skip: uint32(rng.Intn(6))}
		switch {
		case cls.IsMemory():
			rec.EA = uint64(rng.Intn(512)) << 12 // 512 pages >> L1D reach
		case cls.IsBranch():
			rec.Taken = rng.Bool(0.6) || cls != trace.ClassCondBranch
			rec.Target = pc + uint64(rng.Intn(1<<10))
		}
		recs[i] = rec
	}
	return recs
}

// sliceOpen returns a GetOrCaptureFrom source opener over recs.
func sliceOpen(recs []trace.Record) func() (trace.Source, error) {
	return func() (trace.Source, error) { return trace.NewSliceSource(recs), nil }
}

// referenceEvents independently L1-filters recs the way RunTLBOnly
// does and returns the expected event sequence.
func referenceEvents(t *testing.T, recs []trace.Record, cfg Config) []Event {
	t.Helper()
	l1i, err := tlb.New(cfg.L1I, policy.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	l1d, err := tlb.New(cfg.L1D, policy.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	warmupAt := uint64(float64(cfg.Instructions) * cfg.WarmupFraction)
	if cfg.Instructions == 0 {
		warmupAt = 0
	}
	warmed := warmupAt == 0
	var events []Event
	var instructions uint64
	access := func(l1 *tlb.TLB, pc, vpn uint64, instr bool) {
		a := tlb.Access{PC: pc, VPN: vpn}
		if _, hit := l1.Lookup(&a); hit {
			return
		}
		kind := EventDataAccess
		if instr {
			kind = EventInstrAccess
		}
		events = append(events, Event{Kind: kind, PC: pc, VPN: vpn})
		l1.Insert(&a, vpn)
	}
	for i := range recs {
		rec := &recs[i]
		instructions += rec.Instructions()
		if !warmed && instructions >= warmupAt {
			warmed = true
			events = append(events, Event{Kind: EventWarmup})
		}
		access(l1i, rec.PC, rec.PC>>cfg.PageShift, true)
		switch {
		case rec.Class.IsMemory():
			access(l1d, rec.PC, rec.EA>>cfg.PageShift, false)
		case rec.Class.IsBranch():
			events = append(events, Event{
				Kind: EventBranch, PC: rec.PC, Target: rec.Target,
				Conditional: rec.Class == trace.ClassCondBranch,
				Indirect:    rec.Class == trace.ClassUncondIndirect,
				Taken:       rec.Taken,
			})
		}
		if cfg.Instructions > 0 && instructions >= cfg.Instructions {
			break
		}
	}
	return events
}

func TestCaptureMatchesReference(t *testing.T) {
	recs := testRecords(5000)
	cfg := testConfig(8000)
	s, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	want := referenceEvents(t, recs, cfg)
	if s.Events() != uint64(len(want)) {
		t.Fatalf("Events() = %d, want %d", s.Events(), len(want))
	}
	d := s.Decode()
	var ev Event
	for i := 0; i < len(want); i++ {
		if !d.Next(&ev) {
			t.Fatalf("stream ended at event %d of %d (err: %v)", i, len(want), d.Err())
		}
		if ev != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
	if d.Next(&ev) {
		t.Fatal("decoder produced extra events")
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if s.FootprintBytes() == 0 || float64(s.FootprintBytes())/float64(s.Events()) > 6 {
		t.Errorf("encoding too fat: %d bytes for %d events", s.FootprintBytes(), s.Events())
	}
}

func TestCaptureScalars(t *testing.T) {
	recs := testRecords(3000)
	cfg := testConfig(5000)
	s, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Warmed() {
		t.Fatal("capture must cross the warmup boundary")
	}
	if s.WarmupAt() != 2500 {
		t.Errorf("WarmupAt = %d, want 2500", s.WarmupAt())
	}
	if s.WarmupInstructions() < s.WarmupAt() {
		t.Errorf("WarmupInstructions %d < WarmupAt %d", s.WarmupInstructions(), s.WarmupAt())
	}
	if s.Instructions() < cfg.Instructions {
		t.Errorf("Instructions = %d, want >= %d", s.Instructions(), cfg.Instructions)
	}
	if s.L1IMisses() == 0 || s.L1DMisses() == 0 {
		t.Errorf("post-warmup L1 misses = (%d, %d), want both > 0", s.L1IMisses(), s.L1DMisses())
	}
}

func TestCaptureDeterministic(t *testing.T) {
	recs := testRecords(2000)
	cfg := testConfig(3000)
	a, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.FootprintBytes() != b.FootprintBytes() || a.Events() != b.Events() || a.Records() != b.Records() {
		t.Fatalf("captures diverged: (%d B, %d ev) vs (%d B, %d ev)",
			a.FootprintBytes(), a.Events(), b.FootprintBytes(), b.Events())
	}
}

func TestCacheRetriesFailedCapture(t *testing.T) {
	c := NewCache(0)
	key := Key{Workload: "w", Config: testConfig(100)}
	calls := 0
	fail := func() (trace.Source, error) {
		calls++
		return nil, os.ErrPermission
	}
	if _, err := c.GetOrCaptureFrom(key, fail); err == nil {
		t.Fatal("expected capture error")
	}
	recs := testRecords(500)
	cfg := testConfig(100)
	if _, err := c.GetOrCaptureFrom(Key{Workload: "w", Config: cfg}, func() (trace.Source, error) {
		calls++
		return trace.NewSliceSource(recs), nil
	}); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if calls != 2 {
		t.Errorf("capture ran %d times, want 2 (fail + retry)", calls)
	}
}

// decodeAll is the test-only full decode: the whole stream as one
// []Event, block-decoded with NextBlock into successive windows of a
// zeroed slice (so fields NextBlock leaves untouched stay zero), and
// checked against the stream's event count. block sets the window
// length.
func decodeAll(s *Stream, block int) ([]Event, error) {
	evs := make([]Event, s.Events()+1)
	d := s.Decode()
	n := 0
	for {
		end := min(n+block, len(evs))
		k := d.NextBlock(evs[n:end])
		if k == 0 {
			break
		}
		n += k
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if uint64(n) != s.Events() {
		return nil, fmt.Errorf("decoded %d of %d events", n, s.Events())
	}
	return evs[:n], nil
}

// decodeAccesses is decodeAll's access-only counterpart over
// NextAccessBlock, reusing one block buffer the way replay loops do.
func decodeAccesses(s *Stream, block int) ([]Event, error) {
	var out []Event
	blk := make([]Event, block)
	d := s.Decode()
	for {
		k := d.NextAccessBlock(blk)
		if k == 0 {
			break
		}
		for _, ev := range blk[:k] {
			// Only Kind is valid on a warmup marker; only Kind, PC and
			// VPN on an access.
			if ev.Kind == EventWarmup {
				out = append(out, Event{Kind: EventWarmup})
			} else {
				out = append(out, Event{Kind: ev.Kind, PC: ev.PC, VPN: ev.VPN})
			}
		}
	}
	return out, d.Err()
}

// TestDecodeAllMatchesNext: the block decoder must reproduce the
// event-at-a-time decoder exactly, at every block length — including
// lengths that split the stream at odd offsets.
func TestDecodeAllMatchesNext(t *testing.T) {
	recs := testRecords(5000)
	cfg := testConfig(8000)
	s, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the event-at-a-time decoder, which fully populates
	// every Event (unused fields zero).
	var want []Event
	d := s.Decode()
	var ev Event
	for d.Next(&ev) {
		want = append(want, ev)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for _, block := range []int{1, 7, DecodeBlockSize, len(want) + 1} {
		evs, err := decodeAll(s, block)
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if len(evs) != len(want) {
			t.Fatalf("block %d: NextBlock produced %d events, Next %d", block, len(evs), len(want))
		}
		for i := range want {
			if evs[i] != want[i] {
				t.Fatalf("block %d, event %d: NextBlock %+v, Next %+v", block, i, evs[i], want[i])
			}
		}
	}
}

// TestDecodeAccessesMatchesFilteredDecodeAll: the access-only decoder
// must yield exactly the full decode with branch events removed — same
// order, same PCs, same VPNs, same warmup position — at every block
// length. The stream's footprint is its encoded buffer alone.
func TestDecodeAccessesMatchesFilteredDecodeAll(t *testing.T) {
	recs := testRecords(5000)
	cfg := testConfig(8000)
	s, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := decodeAll(s, DecodeBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	for _, ev := range full {
		if ev.Kind != EventBranch {
			want = append(want, ev)
		}
	}
	if uint64(len(want)) != s.Accesses()+1 {
		t.Fatalf("filtered view holds %d events, want %d accesses plus the warmup marker", len(want), s.Accesses())
	}
	for _, block := range []int{1, 7, DecodeBlockSize} {
		got, err := decodeAccesses(s, block)
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if len(got) != len(want) {
			t.Fatalf("block %d: NextAccessBlock produced %d events, filtered NextBlock %d", block, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("block %d, event %d: NextAccessBlock %+v, filtered %+v", block, i, got[i], want[i])
			}
		}
	}
	if fp := s.FootprintBytes(); fp != int64(len(eventBytes(t, s))) {
		t.Errorf("FootprintBytes = %d, want the %d encoded bytes", fp, len(eventBytes(t, s)))
	}
}

// TestAccessDecoderRejectsGarbage: the access-only decoder must stop
// with an error on the same corruptions the full decoder rejects,
// including ones inside branch events it does not store.
func TestAccessDecoderRejectsGarbage(t *testing.T) {
	blk := make([]Event, 4)
	for _, buf := range [][]byte{
		{0x07, 0xff},                                                         // unknown kind
		{wireInstrAccess | wireTaken, 0x02},                                  // taken flag on an access
		{wireWarmup | 1<<wirePCShift},                                        // width bits on the marker
		{wireInstrAccess | 1<<wirePCShift, 2},                                // truncated 2-byte PC
		{wireDataAccess | 2<<wireAuxShift, 0x02, 0x80},                       // truncated 4-byte VPN
		{wireCondBranch | 1<<wireAuxShift, 0x02, 0x80},                       // truncated 2-byte target
		{wireInstrAccess, 0x02, wireDirBranch | 1<<wireAuxShift, 0x02, 0x7f}, // truncated after a good event
	} {
		d := &Decoder{buf: buf, pageShift: 12}
		for d.NextAccessBlock(blk) > 0 {
		}
		if d.Err() == nil {
			t.Errorf("% x: NextAccessBlock reported no error", buf)
		}
		full := &Decoder{buf: buf, pageShift: 12}
		for full.NextBlock(blk) > 0 {
		}
		if full.Err() == nil {
			t.Errorf("% x: NextBlock reported no error", buf)
		}
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	d := &Decoder{buf: []byte{0x07, 0xff}, pageShift: 12} // kind 7 unused
	var ev Event
	if d.Next(&ev) {
		t.Fatal("decoder accepted an unknown event kind")
	}
	if d.Err() == nil {
		t.Fatal("decoder must report corruption")
	}
	// Truncated payload: a data access needs a PC and a VPN byte.
	d = &Decoder{buf: []byte{wireDataAccess, 0x80}, pageShift: 12}
	if d.Next(&ev) || d.Err() == nil {
		t.Fatal("decoder must reject a truncated event")
	}
}

// BenchmarkDecodeViews compares a full block decode of the stream
// against the access-only decode the replay view and non-observer
// policies walk.
func BenchmarkDecodeViews(b *testing.B) {
	recs := testRecords(200000)
	cfg := testConfig(0)
	s, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	var blk [DecodeBlockSize]Event
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := s.Decode()
			n := 0
			for k := d.NextBlock(blk[:]); k > 0; k = d.NextBlock(blk[:]) {
				n += k
			}
			if d.Err() != nil || uint64(n) != s.Events() {
				b.Fatalf("decoded %d events (%v)", n, d.Err())
			}
		}
		b.ReportMetric(float64(s.Events())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
	b.Run("accesses", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := s.Decode()
			n := 0
			for k := d.NextAccessBlock(blk[:]); k > 0; k = d.NextAccessBlock(blk[:]) {
				n += k
			}
			if d.Err() != nil || uint64(n) < s.Accesses() {
				b.Fatalf("decoded %d events (%v)", n, d.Err())
			}
		}
		b.ReportMetric(float64(s.Accesses())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Maccesses/s")
	})
}

// multiChunkCapture captures a stream whose encoded buffer spans
// several encoder chunks, with the warmup marker mid-stream.
func multiChunkCapture(t *testing.T, maxBytes int64) (*Stream, error) {
	t.Helper()
	return Capture(trace.NewSliceSource(testRecords(120000)), testConfig(300000), maxBytes)
}

// eventBytes returns a stream's encoded events as one buffer: the
// events section of its file.
func eventBytes(t *testing.T, s *Stream) []byte {
	t.Helper()
	buf := make([]byte, s.size)
	if _, err := s.file.ReadAt(buf, storeHeaderSize); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestCaptureMultiChunkBytes pins the encoding of a capture several
// encoder chunks long: chunked encoding must produce exactly the bytes
// one growing buffer did, so its length and CRC-32C are the ones the
// single-buffer encoder produced for the same input.
func TestCaptureMultiChunkBytes(t *testing.T) {
	s, err := multiChunkCapture(t, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := eventBytes(t, s)
	if s.FootprintBytes() < 4*encodeChunkSize {
		t.Fatalf("test premise broken: %d bytes span fewer than four %d-byte chunks", s.FootprintBytes(), encodeChunkSize)
	}
	const wantLen, wantCRC = 264923, 0xdbcef333
	if got := crc32.Checksum(buf, castagnoli); len(buf) != wantLen || got != wantCRC || s.FootprintBytes() != wantLen {
		t.Errorf("encoded %d bytes (footprint %d) with CRC-32C %#08x, want %d bytes with %#08x",
			len(buf), s.FootprintBytes(), got, wantLen, uint32(wantCRC))
	}
	if !s.Warmed() || s.WarmupInstructions() == 0 {
		t.Error("test premise broken: the capture has no mid-stream warmup marker")
	}
}

// countingSource counts the records a capture pulls from its source.
type countingSource struct {
	trace.Source
	n int
}

func (c *countingSource) Next(rec *trace.Record) bool {
	ok := c.Source.Next(rec)
	if ok {
		c.n++
	}
	return ok
}

// TestCaptureOverBudgetMultiChunk: the budget check sees the total
// encoded bytes across chunks, at the same record-block check as
// before. A budget one byte short of the buffer fails, and one equal
// to it commits the same bytes as an unbounded capture. A budget of a
// quarter of the buffer stops the capture at the first record block
// that crosses it, long before the source runs dry.
func TestCaptureOverBudgetMultiChunk(t *testing.T) {
	probe, err := multiChunkCapture(t, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := probe.FootprintBytes()
	src := &countingSource{Source: trace.NewSliceSource(testRecords(120000))}
	if _, err := Capture(src, testConfig(300000), n/4); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("budget %d: err = %v, want ErrOverBudget", n/4, err)
	}
	if src.n%trace.DefaultBlockSize != 0 || uint64(src.n) > probe.Records()/2 {
		t.Errorf("budget %d stopped after %d of %d records, want a whole number of %d-record blocks, well short of the end",
			n/4, src.n, probe.Records(), trace.DefaultBlockSize)
	}
	if _, err := multiChunkCapture(t, n-1); !errors.Is(err, ErrOverBudget) {
		t.Errorf("budget %d, one byte short: err = %v, want ErrOverBudget", n-1, err)
	}
	s, err := multiChunkCapture(t, n)
	if err != nil {
		t.Fatalf("budget %d, the buffer's size: %v", n, err)
	}
	if !bytes.Equal(eventBytes(t, s), eventBytes(t, probe)) {
		t.Error("capture at the exact budget encoded different bytes from the unbounded one")
	}
}
