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
	"github.com/chirplab/chirp/internal/tlb"
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

// pageSweepStream captures records of pageSweepSource under cfg
// through a fresh persistent cache over dir: captured the first time,
// loaded after that.
func pageSweepStream(t *testing.T, dir string, records uint64, cfg TLBOnlyConfig) *l2stream.Stream {
	t.Helper()
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

// TestSidecarStreamingAllocs pins the sidecar codec's memory: a block
// pass that builds an access view of at least 16 MiB and writes its
// sidecar allocates less than an eighth of the view, and so does a
// pass that reads it back. Neither path may hold the whole view, or
// stage the whole payload in a buffer. The view read back equals the
// one a stream without a store builds.
func TestSidecarStreamingAllocs(t *testing.T) {
	const records = 530_000
	cfg := DefaultTLBOnlyConfig(records)
	dir := t.TempDir()
	walkNothing := func(*viewBlock) error { return nil }

	s := pageSweepStream(t, dir, records, cfg)
	viewBytes := s.Accesses() * 16
	if viewBytes < 16<<20 {
		t.Fatalf("test premise broken: the access view holds %d bytes, want at least 16 MiB", viewBytes)
	}
	writes := obs.Default.Counter("chirp_l2stream_derived_disk_writes_total", "")
	writes0 := writes.Value()
	if n := heapAllocated(func() {
		if err := newBlockPass(s, nil, nil).run(walkNothing); err != nil {
			t.Fatal(err)
		}
	}); n >= viewBytes/8 {
		t.Errorf("building and persisting a %d-byte access view allocated %d bytes, want under %d", viewBytes, n, viewBytes/8)
	}
	if d := writes.Value() - writes0; d != 1 {
		t.Fatalf("sidecar writes delta = %d, want 1", d)
	}

	warm := pageSweepStream(t, dir, records, cfg)
	hits := obs.Default.Counter("chirp_l2stream_derived_disk_hits_total", "")
	hits0 := hits.Value()
	if n := heapAllocated(func() {
		if err := newBlockPass(warm, nil, nil).run(walkNothing); err != nil {
			t.Fatal(err)
		}
	}); n >= viewBytes/8 {
		t.Errorf("reading a %d-byte access view allocated %d bytes, want under %d", viewBytes, n, viewBytes/8)
	}
	if d := hits.Value() - hits0; d != 1 {
		t.Fatalf("sidecar hits delta = %d, want 1", d)
	}

	got, err := accessViewFor(warm)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := l2stream.Capture(&pageSweepSource{n: records}, CaptureConfig(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	want, err := accessViewFor(bare)
	if err != nil {
		t.Fatal(err)
	}
	if got.warmIdx != want.warmIdx || !slices.Equal(got.pc, want.pc) || !slices.Equal(got.vpn, want.vpn) {
		t.Error("the access view read from its sidecar differs from the one built without a store")
	}
}

// TestReplayMemoryBounded pins replay memory to a bound that does not
// grow with the stream: a synthetic stream whose access, CHiRP and
// GHRP views total at least 32 MiB is captured without a capture
// directory and into a persistent store, each allocating under an
// eighth of its encoded size, and replayed under LRU, CHiRP and GHRP:
// without a store (one decode pass that builds the views), cold (one
// that also writes the sidecars) and warm (from the sidecars), each
// allocating under an eighth of the view bytes. Every replay equals
// the direct path's rows.
func TestReplayMemoryBounded(t *testing.T) {
	const records = 620_000
	cfg := DefaultTLBOnlyConfig(records)
	dir := t.TempDir()
	capture := func(where string, get func() *l2stream.Stream) *l2stream.Stream {
		var s *l2stream.Stream
		captured := heapAllocated(func() { s = get() })
		if limit := uint64(s.FootprintBytes()) / 8; captured >= limit {
			t.Errorf("capturing %d encoded bytes %s allocated %d bytes, want under %d", s.FootprintBytes(), where, captured, limit)
		}
		return s
	}
	bare := capture("without a capture directory", func() *l2stream.Stream {
		s, err := StreamFor(l2stream.NewCache(0), "page-sweep", "", cfg, func() (trace.Source, error) {
			return &pageSweepSource{n: records}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	defer bare.Close()
	s := capture("into the store", func() *l2stream.Stream { return pageSweepStream(t, dir, records, cfg) })
	defer s.Close()
	viewBytes := s.Accesses() * (16 + 4 + 8)
	if viewBytes < 32<<20 {
		t.Fatalf("test premise broken: the views hold %d bytes, want at least 32 MiB", viewBytes)
	}
	fs := namedFactories(t, "lru", "chirp", "ghrp")
	var want []TLBOnlyResult
	for _, f := range fs {
		res, err := RunTLBOnly(&pageSweepSource{n: records}, f.New(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	for _, run := range []string{"no-dir", "cold", "warm"} {
		stream := s
		switch run {
		case "no-dir":
			stream = bare
		case "warm":
			stream = pageSweepStream(t, dir, records, cfg)
			defer stream.Close()
		}
		ps := make([]tlb.Policy, len(fs))
		for i, f := range fs {
			ps[i] = f.New()
		}
		passes0 := decodePasses.Value()
		var got []TLBOnlyResult
		n := heapAllocated(func() {
			var err error
			if got, err = ReplayMulti(stream, ps, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if n >= viewBytes/8 {
			t.Errorf("%s replay over %d view bytes allocated %d bytes, want under %d", run, viewBytes, n, viewBytes/8)
		}
		if d, wantD := decodePasses.Value()-passes0, map[string]uint64{"no-dir": 1, "cold": 1, "warm": 0}[run]; d != wantD {
			t.Errorf("%s replay ran %d decode passes, want %d", run, d, wantD)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s replay diverged from the direct path:\n got:  %+v\n want: %+v", run, got, want)
		}
	}
}
