package l2stream

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/chirplab/chirp/internal/trace"
)

// TestCRC32CombineMatchesChecksum: the combined CRC-32C of two pieces
// equals the CRC-32C of their concatenation, for empty pieces, pieces
// shorter and longer than a word, and every split of a buffer.
func TestCRC32CombineMatchesChecksum(t *testing.T) {
	rng := trace.NewRNG(3)
	for _, n := range []int{0, 1, 7, 8, 9, 80, 257, 4096, 70000} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		want := crc32.Checksum(buf, castagnoli)
		for _, at := range []int{0, 1, n / 3, n / 2, n - 1, n} {
			if at < 0 || at > n {
				continue
			}
			a, b := buf[:at], buf[at:]
			got := crc32Combine(crc32.Checksum(a, castagnoli), crc32.Checksum(b, castagnoli), int64(len(b)))
			if got != want {
				t.Errorf("n=%d split at %d: combined %#08x, checksum %#08x", n, at, got, want)
			}
		}
	}
}

// stagingFiles lists the staging files in dir.
func stagingFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCaptureStreamsIntoStagingFile: a capture into a persistent cache
// spanning many encoder chunks writes the store file byte for byte as
// a capture without a capture directory writes its unnamed file, and
// only the first counts a disk write. Each reads its events from its
// file, and neither leaves a file behind in its directory.
func TestCaptureStreamsIntoStagingFile(t *testing.T) {
	recs := testRecords(200_000)
	cfg := testConfig(300_000)
	key := Key{Workload: "w", Config: cfg}
	tmpDir, fileDir := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmpDir)
	writes0 := obsCacheDiskWrites.Value()
	want, err := NewCache(0).GetOrCaptureFrom(key, sliceOpen(recs))
	if err != nil {
		t.Fatal(err)
	}
	if want.FootprintBytes() < 4*encodeChunkSize {
		t.Fatalf("test premise broken: %d encoded bytes span fewer than four chunks", want.FootprintBytes())
	}
	staged, err := NewPersistent(0, fileDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := staged.GetOrCaptureFrom(key, sliceOpen(recs))
	if err != nil {
		t.Fatal(err)
	}
	if d := obsCacheDiskWrites.Value() - writes0; d != 1 {
		t.Errorf("disk writes delta = %d, want 1", d)
	}
	info, err := want.file.Stat()
	if err != nil {
		t.Fatal(err)
	}
	wantFile := make([]byte, info.Size())
	if _, err := want.file.ReadAt(wantFile, 0); err != nil {
		t.Fatal(err)
	}
	gotFile, err := os.ReadFile(staged.store.streamPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFile, wantFile) {
		t.Error("the store file differs from the unnamed file of a capture without a capture directory")
	}
	ge, err := decodeAll(got, DecodeBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	we, err := decodeAll(want, DecodeBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(ge) != len(we) {
		t.Fatalf("decoded %d events, want %d", len(ge), len(we))
	}
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	if left := stagingFiles(t, fileDir); len(left) != 0 {
		t.Errorf("staging files left behind: %v", left)
	}
	if ents, _ := os.ReadDir(tmpDir); len(ents) != 0 {
		t.Errorf("a capture without a capture directory left %v in TMPDIR", ents)
	}
	want.Close()
	got.Close()
}

// panicSource panics when asked for record n+1.
type panicSource struct {
	trace.Source
	n *int
}

func (p panicSource) Next(rec *trace.Record) bool {
	if *p.n--; *p.n < 0 {
		panic("source bug")
	}
	return p.Source.Next(rec)
}

// TestCaptureStagingRemovedOnFailure: a capture into a persistent
// cache, or into a cache without a capture directory, that goes over
// the byte cap, whose source fails to open, or whose source panics
// part-way leaves no file in the capture directory or TMPDIR and no
// descriptor open, and the next call captures again.
func TestCaptureStagingRemovedOnFailure(t *testing.T) {
	recs := testRecords(200_000)
	cfg := testConfig(300_000)
	key := Key{Workload: "w", Config: cfg}
	for _, tc := range []struct {
		name   string
		budget int64
		open   func() (trace.Source, error)
	}{
		{"over-budget", 2 * encodeChunkSize, sliceOpen(recs)},
		{"open-error", 0, func() (trace.Source, error) { return nil, os.ErrPermission }},
		{"panic", 0, func() (trace.Source, error) {
			n := 50_000
			return panicSource{trace.NewSliceSource(recs), &n}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, tmp := t.TempDir(), t.TempDir()
			t.Setenv("TMPDIR", tmp)
			persistent, err := NewPersistent(tc.budget, dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				*Cache
				dir string
			}{{persistent, dir}, {NewCache(tc.budget), tmp}} {
				func() {
					defer func() { recover() }()
					if _, err := c.GetOrCaptureFrom(key, tc.open); err == nil {
						t.Error("the failed capture returned a stream")
					}
				}()
				if ents, _ := os.ReadDir(c.dir); len(ents) != 0 {
					t.Errorf("a failed capture left %v behind", ents)
				}
				if n := openStreamFiles(t, c.dir); n != 0 {
					t.Errorf("a failed capture left %d descriptors open", n)
				}
				if tc.name == "over-budget" {
					continue
				}
				s, err := c.GetOrCaptureFrom(key, sliceOpen(recs))
				if err != nil || s.Events() == 0 {
					t.Fatalf("the capture after the failure: %v", err)
				}
				s.Close()
			}
		})
	}
}

// TestStoreGCReclaimsOrphanedStaging: the scan SetStoreMaxBytes makes
// removes a staging file left unmodified for an hour, keeps a fresh
// one, and counts the fresh one's bytes in the directory's total.
func TestStoreGCReclaimsOrphanedStaging(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "chirp-123.l2s.tmp")
	fresh := filepath.Join(dir, "chirp-456.l2d.tmp")
	for _, p := range []string{orphan, fresh} {
		if err := os.WriteFile(p, make([]byte, 1000), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-staleStaging - time.Minute)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	c, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.SetStoreMaxBytes(1 << 30)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("the orphaned staging file survived the scan (err=%v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("the fresh staging file was removed: %v", err)
	}
	if c.store.total != 1000 {
		t.Errorf("the scan counted %d bytes, want the fresh staging file's 1000", c.store.total)
	}
}
