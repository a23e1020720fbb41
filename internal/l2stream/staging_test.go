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
// persisting the same capture from memory does, keeps no chunk, reads
// its events from the file, and leaves no staging file.
func TestCaptureStreamsIntoStagingFile(t *testing.T) {
	recs := testRecords(200_000)
	cfg := testConfig(300_000)
	key := Key{Workload: "w", Config: cfg}
	memDir, fileDir := t.TempDir(), t.TempDir()
	mem, err := NewPersistent(0, memDir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.GetOrCapture(key, func(maxBytes int64) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, maxBytes)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.FootprintBytes() <= 3*encodeChunkSize {
		t.Fatalf("test premise broken: %d encoded bytes span fewer than four chunks", want.FootprintBytes())
	}
	staged, err := NewPersistent(0, fileDir)
	if err != nil {
		t.Fatal(err)
	}
	writes0 := obsCacheDiskWrites.Value()
	got, err := staged.GetOrCaptureFrom(key, func() (trace.Source, error) { return trace.NewSliceSource(recs), nil })
	if err != nil {
		t.Fatal(err)
	}
	if d := obsCacheDiskWrites.Value() - writes0; d != 1 {
		t.Errorf("disk writes delta = %d, want 1", d)
	}
	if got.chunks != nil || got.file == nil {
		t.Error("a capture into the store kept chunks or has no store file")
	}
	wantFile, err := os.ReadFile(mem.store.streamPath(key))
	if err != nil {
		t.Fatal(err)
	}
	gotFile, err := os.ReadFile(staged.store.streamPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFile, wantFile) {
		t.Error("the store file a capture wrote chunk by chunk differs from the one persisted from memory")
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
// cache that goes over the byte cap, whose source fails to open, or
// whose source panics part-way leaves no file in the directory, and
// the next call captures again.
func TestCaptureStagingRemovedOnFailure(t *testing.T) {
	recs := testRecords(200_000)
	cfg := testConfig(300_000)
	key := Key{Workload: "w", Config: cfg}
	for _, tc := range []struct {
		name   string
		budget int64
		open   func() (trace.Source, error)
	}{
		{"over-budget", 2 * encodeChunkSize, func() (trace.Source, error) { return trace.NewSliceSource(recs), nil }},
		{"open-error", 0, func() (trace.Source, error) { return nil, os.ErrPermission }},
		{"panic", 0, func() (trace.Source, error) {
			n := 50_000
			return panicSource{trace.NewSliceSource(recs), &n}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewPersistent(tc.budget, dir)
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() { recover() }()
				if _, err := c.GetOrCaptureFrom(key, tc.open); err == nil {
					t.Error("the failed capture returned a stream")
				}
			}()
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("a failed capture left %v behind", ents)
			}
			if tc.name == "over-budget" {
				return
			}
			s, err := c.GetOrCaptureFrom(key, func() (trace.Source, error) { return trace.NewSliceSource(recs), nil })
			if err != nil || s.Events() == 0 {
				t.Fatalf("the capture after the failure: %v", err)
			}
		})
	}
}

// TestCaptureStagingFailsIntoMemory: when the staged file cannot be
// renamed into place — a directory stands at its path — the capture
// counts a disk error, leaves no staging file, and runs again into
// memory; the stream it returns decodes.
func TestCaptureStagingFailsIntoMemory(t *testing.T) {
	recs := testRecords(20_000)
	cfg := testConfig(30_000)
	key := Key{Workload: "w", Config: cfg}
	dir := t.TempDir()
	c, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(c.store.streamPath(key), 0o755); err != nil {
		t.Fatal(err)
	}
	opens := 0
	errs0 := obsCacheDiskErrors.Value()
	s, err := c.GetOrCaptureFrom(key, func() (trace.Source, error) {
		opens++
		return trace.NewSliceSource(recs), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if opens != 2 {
		t.Errorf("opened the source %d times, want 2", opens)
	}
	// One error reading the directory as a store file, one renaming
	// the staged file over it.
	if d := obsCacheDiskErrors.Value() - errs0; d != 2 {
		t.Errorf("disk errors delta = %d, want 2", d)
	}
	if s.file != nil || s.chunks == nil {
		t.Error("the stream captured after the disk error is not in memory")
	}
	if _, err := decodeAll(s, DecodeBlockSize); err != nil {
		t.Fatal(err)
	}
	if left := stagingFiles(t, dir); len(left) != 0 {
		t.Errorf("staging files left behind: %v", left)
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
