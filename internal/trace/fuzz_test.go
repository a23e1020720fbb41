package trace

import (
	"bytes"
	"testing"
)

// Fuzz targets: the decoders must never panic on arbitrary input.
// `go test -fuzz=FuzzBinaryReader ./internal/trace` explores further;
// the seeds below run as ordinary tests.

func FuzzBinaryReader(f *testing.F) {
	// Seed with a valid file and a few mutations.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	recs := []Record{
		{PC: 0x1000, Class: ClassLoad, EA: 0x2000, Skip: 3},
		{PC: 0x1004, Class: ClassCondBranch, Taken: true, Target: 0x1000},
		{PC: 0x1010, Class: ClassALU, Skip: 100},
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("CHTR garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, _, _, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var rec Record
		for i := 0; i < 10_000 && r.Next(&rec); i++ {
		}
	})
}
