package trace

import "testing"

// scriptedRecords builds a deterministic record sequence for the
// adapter tests.
func scriptedRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{PC: uint64(i) * 4, Skip: uint32(i % 7), Class: ClassLoad, EA: uint64(i) << 12}
	}
	return recs
}

func TestBlocksMatchesNext(t *testing.T) {
	recs := scriptedRecords(1000)
	// Odd block size so block boundaries never align with the stream.
	bs := Blocks(NewSliceSource(recs))
	buf := make([]Record, 33)
	var got []Record
	for {
		n := bs.NextBlock(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(recs) {
		t.Fatalf("block read returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d diverged: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestBlocksAdaptsPlainSource(t *testing.T) {
	recs := scriptedRecords(100)
	// Hide the SliceSource behind a plain Source so Blocks must wrap it.
	var plain Source = &onlySource{src: NewSliceSource(recs)}
	bs := Blocks(plain)
	if _, native := plain.(BlockSource); native {
		t.Fatal("test premise broken: plain source implements BlockSource")
	}
	buf := make([]Record, 16)
	total := 0
	for {
		n := bs.NextBlock(buf)
		if n == 0 {
			break
		}
		total += n
	}
	if total != len(recs) {
		t.Errorf("adapter produced %d records, want %d", total, len(recs))
	}
	bs.Reset()
	if n := bs.NextBlock(buf); n != 16 {
		t.Errorf("after Reset NextBlock = %d, want 16", n)
	}
}

// onlySource strips any extra interfaces off a Source.
type onlySource struct{ src Source }

func (o *onlySource) Next(rec *Record) bool { return o.src.Next(rec) }
func (o *onlySource) Reset()                { o.src.Reset() }

func TestLimitNextBlockClampsBudget(t *testing.T) {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{PC: uint64(i), Skip: 9} // 10 instructions each
	}
	lim := NewLimit(NewSliceSource(recs), 55)
	buf := make([]Record, 8)
	var instrs, records uint64
	for {
		n := lim.NextBlock(buf)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			records++
			instrs += buf[i].Instructions()
		}
	}
	if records != 6 || instrs != 55 {
		t.Errorf("block-read limit = (%d instrs, %d records), want (55, 6)", instrs, records)
	}
	// Block and record reads must agree exactly.
	lim.Reset()
	i2, r2 := CountInstructions(&onlySource{src: lim})
	if i2 != instrs || r2 != records {
		t.Errorf("record-at-a-time read = (%d, %d), want (%d, %d)", i2, r2, instrs, records)
	}
}

func TestLimitBlockMatchesNextExactly(t *testing.T) {
	recs := scriptedRecords(500)
	a := NewLimit(NewSliceSource(recs), 700)
	b := NewLimit(NewSliceSource(recs), 700)
	var viaNext []Record
	var rec Record
	for a.Next(&rec) {
		viaNext = append(viaNext, rec)
	}
	var viaBlock []Record
	buf := make([]Record, 13)
	for {
		n := b.NextBlock(buf)
		if n == 0 {
			break
		}
		viaBlock = append(viaBlock, buf[:n]...)
	}
	if len(viaNext) != len(viaBlock) {
		t.Fatalf("Next yielded %d records, NextBlock %d", len(viaNext), len(viaBlock))
	}
	for i := range viaNext {
		if viaNext[i] != viaBlock[i] {
			t.Fatalf("record %d diverged: %+v vs %+v", i, viaNext[i], viaBlock[i])
		}
	}
}
