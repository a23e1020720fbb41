package sim

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/trace"
)

// sidecarFor returns the one .l2d file in dir that holds derived key
// dkey: sidecar names end in "-d" plus the FNV-64a hash of the key.
func sidecarFor(t *testing.T, dir, dkey string) string {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(dkey))
	files, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("*-d%016x.l2d", h.Sum64())))
	if err != nil || len(files) != 1 {
		t.Fatalf("sidecar for %q: found %v (%v), want one file", dkey, files, err)
	}
	return files[0]
}

// TestSidecarBytesPinned pins the on-disk bytes of the access view, the
// default CHiRP signature view and the GHRP signature view that one
// 3 M-instruction capture persists: each sidecar's length and CRC-32C,
// recorded from the whole-payload codecs that wrote the format first.
// The av3 figures are the av2 file's (297211 bytes, 0xad0be2e5) with
// its trailing instruction-side byte column cut and the frame redone.
// Every payload spans several of the codecs' column buffers, so a
// streamed codec that moves a single byte of the format fails here.
func TestSidecarBytesPinned(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(3000000)
	dir := t.TempDir()
	_, s := persistentStreamFor(t, dir, "db-003", cfg)
	ccfg := core.DefaultConfig()
	ds := []*decodedView{accessViewD, chirpSigsDecl(ccfg, chirpSigsKey(ccfg)), ghrpSigsD}
	if _, err := decodedViews(s, ds); err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, want := range []struct {
		key string
		len int
		crc uint32
	}{
		{"av3", 279731, 0x686c9239},
		{chirpSigsKey(ccfg), 69995, 0xfaf9bce7},
		{"ghrp:gs1", 139888, 0x5df1c241},
	} {
		data, err := os.ReadFile(sidecarFor(t, dir, want.key))
		if err != nil {
			t.Fatal(err)
		}
		if got := crc32.Checksum(data, castagnoli); len(data) != want.len || got != want.crc {
			t.Errorf("%s: sidecar is %d bytes with CRC-32C %#08x, want %d bytes with %#08x",
				want.key, len(data), got, want.len, want.crc)
		}
	}
}

// pageSweepSource yields n load records whose code and data pages both
// stride through 64 Ki pages, so nearly every record misses both L1
// TLBs and adds an instruction and a data access to the L2 stream.
type pageSweepSource struct{ i, n uint64 }

func (p *pageSweepSource) Next(rec *trace.Record) bool {
	if p.i >= p.n {
		return false
	}
	*rec = trace.Record{
		PC:    0x400000 + (p.i*7919%65536)<<12,
		EA:    0x7f0000000000 + (p.i*104729%65536)<<12,
		Class: trace.ClassLoad,
	}
	p.i++
	return true
}

func (p *pageSweepSource) Reset() { p.i = 0 }

// heapAllocated returns the bytes fn allocates on the heap.
func heapAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSidecarStreamingAllocs pins the sidecar codec's memory: writing
// an access view of at least 16 MiB through the store allocates less
// than 1 MiB, and loading it back allocates at most the view plus
// 1 MiB. Neither path may stage the whole payload in a buffer.
func TestSidecarStreamingAllocs(t *testing.T) {
	const records = 530_000
	cfg := DefaultTLBOnlyConfig(records)
	dir := t.TempDir()
	stream := func() *l2stream.Stream {
		cache, err := l2stream.NewPersistent(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := StreamFor(cache, "page-sweep", "", cfg, func() (trace.Source, error) {
			return &pageSweepSource{n: records}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := stream()
	vs, err := buildViews(s, []*decodedView{accessViewD})
	if err != nil {
		t.Fatal(err)
	}
	av := vs[0].(*accessView)
	viewBytes := uint64(len(av.pc)) * 16
	if viewBytes < 16<<20 {
		t.Fatalf("test premise broken: the access view holds %d bytes, want at least 16 MiB", viewBytes)
	}
	const slack = 1 << 20
	spec := []*l2stream.DerivedSpec{accessViewD.spec}
	writes := obs.Default.Counter("chirp_l2stream_derived_disk_writes_total", "")
	writes0 := writes.Value()
	if n := heapAllocated(func() {
		if _, err := s.DerivedAll(spec, func([]int) ([]any, error) { return []any{av}, nil }); err != nil {
			t.Fatal(err)
		}
	}); n >= slack {
		t.Errorf("persisting a %d-byte access view allocated %d bytes, want under %d", viewBytes, n, slack)
	}
	if d := writes.Value() - writes0; d != 1 {
		t.Fatalf("sidecar writes delta = %d, want 1", d)
	}

	warm := stream()
	hits := obs.Default.Counter("chirp_l2stream_derived_disk_hits_total", "")
	hits0 := hits.Value()
	var got *accessView
	if n := heapAllocated(func() {
		if got, err = accessViewFor(warm); err != nil {
			t.Fatal(err)
		}
	}); n > viewBytes+slack {
		t.Errorf("loading a %d-byte access view allocated %d bytes, want at most %d", viewBytes, n, viewBytes+slack)
	}
	if d := hits.Value() - hits0; d != 1 {
		t.Fatalf("sidecar hits delta = %d, want 1", d)
	}
	if got.warmIdx != av.warmIdx || !slices.Equal(got.pc, av.pc) || !slices.Equal(got.vpn, av.vpn) {
		t.Error("the loaded access view differs from the one persisted")
	}
}
