package trace

import (
	"bytes"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{ClassALU, "alu"},
		{ClassLoad, "load"},
		{ClassStore, "store"},
		{ClassCondBranch, "cond-branch"},
		{ClassUncondDirect, "uncond-direct"},
		{ClassUncondIndirect, "uncond-indirect"},
		{Class(250), "class(250)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Class(%d).String() = %q, want %q", tt.c, got, tt.want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !ClassLoad.IsMemory() || !ClassStore.IsMemory() {
		t.Error("loads and stores must be memory")
	}
	if ClassALU.IsMemory() || ClassCondBranch.IsMemory() {
		t.Error("ALU and branches must not be memory")
	}
	for _, c := range []Class{ClassCondBranch, ClassUncondDirect, ClassUncondIndirect} {
		if !c.IsBranch() {
			t.Errorf("%v must be a branch", c)
		}
	}
	if ClassALU.IsBranch() || ClassLoad.IsBranch() {
		t.Error("ALU and loads must not be branches")
	}
}

func TestRecordInstructions(t *testing.T) {
	r := Record{Skip: 0}
	if got := r.Instructions(); got != 1 {
		t.Errorf("Instructions() = %d, want 1", got)
	}
	r.Skip = 7
	if got := r.Instructions(); got != 8 {
		t.Errorf("Instructions() = %d, want 8", got)
	}
}

func TestSliceSourceRoundTrip(t *testing.T) {
	recs := []Record{
		{PC: 0x1000, Class: ClassALU, Skip: 3},
		{PC: 0x1010, Class: ClassLoad, EA: 0xdead000},
		{PC: 0x1014, Class: ClassCondBranch, Taken: true, Target: 0x1000},
	}
	src := NewSliceSource(recs)
	got := Collect(src)
	if len(got) != len(recs) {
		t.Fatalf("Collect returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	// After exhaustion Next keeps returning false.
	var rec Record
	if src.Next(&rec) {
		t.Error("Next after exhaustion must report false")
	}
	src.Reset()
	if !src.Next(&rec) || rec != recs[0] {
		t.Error("Reset must restart the stream")
	}
}

func TestCountInstructions(t *testing.T) {
	recs := []Record{
		{PC: 1, Skip: 9},  // 10 instructions
		{PC: 2, Skip: 0},  // 1
		{PC: 3, Skip: 99}, // 100
	}
	instrs, records := CountInstructions(NewSliceSource(recs))
	if instrs != 111 || records != 3 {
		t.Errorf("CountInstructions = (%d, %d), want (111, 3)", instrs, records)
	}
}

func TestLimitTruncates(t *testing.T) {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{PC: uint64(i), Skip: 9} // 10 instructions each
	}
	lim := NewLimit(NewSliceSource(recs), 55)
	instrs, records := CountInstructions(lim)
	// 50 instructions after 5 records; the 6th straddles the budget, so
	// its Skip is clamped and the stream yields exactly 55 instructions.
	if records != 6 || instrs != 55 {
		t.Errorf("limited stream = (%d instrs, %d records), want (55, 6)", instrs, records)
	}
	lim.Reset()
	instrs2, records2 := CountInstructions(lim)
	if instrs2 != instrs || records2 != records {
		t.Errorf("after Reset = (%d, %d), want (%d, %d)", instrs2, records2, instrs, records)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("different-seed RNGs collided %d/1000 times", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("zero-seeded RNG produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("Perm produced invalid or duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestRNGZipfSkew(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 100, 20000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Zipf(n, 0.9)]++
	}
	lowHalf, highHalf := 0, 0
	for i, c := range counts {
		if i < n/2 {
			lowHalf += c
		} else {
			highHalf += c
		}
	}
	if lowHalf <= highHalf*2 {
		t.Errorf("Zipf(0.9) not skewed: low half %d, high half %d", lowHalf, highHalf)
	}
	// s = 0 must be uniform-ish.
	for i := range counts {
		counts[i] = 0
	}
	for i := 0; i < draws; i++ {
		counts[r.Zipf(n, 0)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("Zipf(0) never produced %d in %d draws", i, draws)
		}
	}
}

func TestRNGZipfProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed uint64, skewRaw uint8) bool {
		r := NewRNG(seed)
		s := float64(skewRaw) / 255.0 // [0, 1]
		v := r.Zipf(50, s)
		return v >= 0 && v < 50
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	rng := NewRNG(123)
	recs := make([]Record, 5000)
	pc := uint64(0x400000)
	ea := uint64(0x10000000)
	for i := range recs {
		pc += uint64(4 * (1 + rng.Intn(4)))
		cls := Class(rng.Intn(NumClasses))
		rec := Record{PC: pc, Class: cls, Skip: uint32(rng.Intn(8))}
		switch {
		case cls.IsMemory():
			ea += uint64(rng.Intn(1 << 20))
			rec.EA = ea
		case cls.IsBranch():
			rec.Taken = rng.Bool(0.6) || cls != ClassCondBranch
			rec.Target = pc - uint64(rng.Intn(1<<12)) + 4
		}
		recs[i] = rec
	}

	path := filepath.Join(t.TempDir(), "t.chtr")
	wrecs, winstrs, err := WriteFile(path, NewSliceSource(recs))
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if wrecs != uint64(len(recs)) {
		t.Errorf("WriteFile records = %d, want %d", wrecs, len(recs))
	}

	fs, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer fs.Close()
	hr, hi := fs.Counts()
	if hr != wrecs || hi != winstrs {
		t.Errorf("header counts = (%d, %d), want (%d, %d)", hr, hi, wrecs, winstrs)
	}
	got := Collect(fs)
	if err := fs.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}

	// Reset and re-read.
	fs.Reset()
	got2 := Collect(fs)
	if len(got2) != len(recs) {
		t.Errorf("after Reset decoded %d records, want %d", len(got2), len(recs))
	}
}

func TestFileRejectsGarbage(t *testing.T) {
	_, _, _, err := NewReader(bytes.NewReader([]byte("not a trace file at all........")))
	if err == nil {
		t.Fatal("NewReader accepted garbage")
	}
	// Truncated header.
	_, _, _, err = NewReader(bytes.NewReader([]byte("CHTR")))
	if err == nil {
		t.Fatal("NewReader accepted truncated header")
	}
}

func TestWriterToNonSeekable(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	rec := Record{PC: 0x1000, Class: ClassLoad, EA: 0x2000}
	if err := w.Write(&rec); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, rc, _, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if rc != 0 {
		t.Errorf("non-seekable header count = %d, want 0", rc)
	}
	var got Record
	if !r.Next(&got) || got != rec {
		t.Errorf("decoded %+v, want %+v", got, rec)
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := NewRNG(seed)
		count := int(n%200) + 1
		recs := make([]Record, count)
		for i := range recs {
			cls := Class(rng.Intn(NumClasses))
			rec := Record{PC: rng.Uint64(), Class: cls, Skip: rng.Uint32() % 1000}
			switch {
			case cls.IsMemory():
				rec.EA = rng.Uint64()
			case cls.IsBranch():
				rec.Taken = rng.Bool(0.5) || cls != ClassCondBranch
				rec.Target = rng.Uint64()
			}
			recs[i] = rec
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, _, _, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		for i := range recs {
			var got Record
			if !r.Next(&got) || got != recs[i] {
				return false
			}
		}
		var extra Record
		return !r.Next(&extra) && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBinaryReaderNeverPanicsOnGarbage(t *testing.T) {
	f := func(garbage []byte) bool {
		r, _, _, err := NewReader(bytes.NewReader(garbage))
		if err != nil {
			return true
		}
		var rec Record
		for i := 0; i < 1000 && r.Next(&rec); i++ {
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
