package l2stream

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/chirplab/chirp/internal/trace"
)

// TestPersistentSecondCacheCapturesNothing is the cross-process reuse
// contract: a second cache (standing in for a second process) on the
// same capture directory must perform zero captures — every stream
// loads from disk, misses stay flat, and the loaded stream is
// event-identical to the captured one.
func TestPersistentSecondCacheCapturesNothing(t *testing.T) {
	recs := testRecords(3000)
	cfg := testConfig(5000)
	dir := t.TempDir()

	first, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	writes0 := obsCacheDiskWrites.Value()
	keys := []Key{
		{Workload: "a", Config: cfg},
		{Workload: "b", Config: cfg},
	}
	want := make(map[string]*Stream)
	for _, k := range keys {
		s, err := first.GetOrCaptureFrom(k, sliceOpen(recs))
		if err != nil {
			t.Fatal(err)
		}
		want[k.Workload] = s
	}
	if d := obsCacheDiskWrites.Value() - writes0; d != 2 {
		t.Errorf("disk writes delta = %d, want 2", d)
	}

	second, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	misses0, diskHits0 := obsCacheMisses.Value(), obsCacheDiskHits.Value()
	for _, k := range keys {
		got, err := second.GetOrCaptureFrom(k, func() (trace.Source, error) {
			t.Errorf("second cache captured %s instead of loading it", k.Workload)
			return nil, os.ErrInvalid
		})
		if err != nil {
			t.Fatal(err)
		}
		w := want[k.Workload]
		if got.Records() != w.Records() || got.Instructions() != w.Instructions() ||
			got.Events() != w.Events() || got.Accesses() != w.Accesses() ||
			got.WarmupAt() != w.WarmupAt() || got.WarmupInstructions() != w.WarmupInstructions() ||
			got.L1IMisses() != w.L1IMisses() || got.L1DMisses() != w.L1DMisses() ||
			got.Warmed() != w.Warmed() {
			t.Fatalf("loaded scalars diverge for %s", k.Workload)
		}
		ge, err := decodeAll(got, DecodeBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		we, err := decodeAll(w, DecodeBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(ge) != len(we) {
			t.Fatalf("loaded stream has %d events, captured %d", len(ge), len(we))
		}
		for i := range we {
			if ge[i] != we[i] {
				t.Fatalf("event %d diverged after disk round-trip", i)
			}
		}
	}
	if d := obsCacheMisses.Value() - misses0; d != 0 {
		t.Errorf("second cache counted %d misses, want 0", d)
	}
	if d := obsCacheDiskHits.Value() - diskHits0; d != 2 {
		t.Errorf("disk hits delta = %d, want 2", d)
	}
}

// TestPersistentCorruptionRecaptures: a truncated, garbage,
// version-mismatched, or bit-flipped store file must read as absent —
// the cache recaptures and atomically replaces it rather than erroring
// out or replaying wrong events.
func TestPersistentCorruptionRecaptures(t *testing.T) {
	recs := testRecords(2000)
	cfg := testConfig(3000)
	key := Key{Workload: "w", Config: cfg}

	corrupt := []struct {
		name string
		mod  func(t *testing.T, meta string)
	}{
		{"truncated", func(t *testing.T, meta string) {
			if err := os.Truncate(meta, storeHeaderSize-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad-magic", func(t *testing.T, meta string) {
			data, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			data[0] ^= 0xff
			if err := os.WriteFile(meta, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-mismatch", func(t *testing.T, meta string) {
			data, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			data[4]++ // codec version bump invalidates the file
			if err := os.WriteFile(meta, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", func(t *testing.T, meta string) {
			// One byte flipped in the middle of the event buffer: the
			// framing stays intact, so only the buffer checksum can tell.
			data, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			buflen := binary.LittleEndian.Uint64(data[48+8*9:])
			if buflen == 0 {
				t.Fatal("test premise broken: capture has an empty buffer")
			}
			data[storeHeaderSize+buflen/2] ^= 0xff
			if err := os.WriteFile(meta, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"scalar-flip", func(t *testing.T, meta string) {
			// One bit flipped in the persisted instruction count: the
			// file still frames and its buffer still checks out, but
			// MPKI would be computed from the wrong denominator.
			data, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			data[storeScalarsAt+8*1] ^= 0x01
			if err := os.WriteFile(meta, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"buffer-only-crc", func(t *testing.T, meta string) {
			// A header whose checksum covers only the event buffer, as
			// version 3 wrote it: it must not pass for a checked one.
			data, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(data[storeCRCOffset:], crc32.Checksum(data[storeHeaderSize:], castagnoli))
			if err := os.WriteFile(meta, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"short-payload", func(t *testing.T, meta string) {
			fi, err := os.Stat(meta)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(meta, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewPersistent(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.GetOrCaptureFrom(key, sliceOpen(recs)); err != nil {
				t.Fatal(err)
			}
			meta := (&store{dir: dir}).streamPath(key)
			tc.mod(t, meta)

			c2, err := NewPersistent(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			captures := 0
			s, err := c2.GetOrCaptureFrom(key, func() (trace.Source, error) {
				captures++
				return trace.NewSliceSource(recs), nil
			})
			if err != nil {
				t.Fatalf("corrupted store file broke GetOrCaptureFrom: %v", err)
			}
			if captures != 1 {
				t.Errorf("capture ran %d times, want 1 (recapture past the corrupt file)", captures)
			}
			if s.Events() == 0 {
				t.Error("recaptured stream is empty")
			}
			// The recapture healed the store: a third cache loads it.
			c3, err := NewPersistent(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c3.GetOrCaptureFrom(key, func() (trace.Source, error) {
				t.Error("store not healed; captured again")
				return nil, os.ErrInvalid
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFingerprintSensitivity: any key field change must address a
// different store file, so stale captures are never served.
func TestFingerprintSensitivity(t *testing.T) {
	base := Key{Workload: "w", Config: testConfig(3000)}
	mut := []Key{
		{Workload: "x", Config: base.Config},
		{Workload: "w", Config: func() Config { c := base.Config; c.Instructions = 4000; return c }()},
		{Workload: "w", Config: func() Config { c := base.Config; c.WarmupFraction = 0.25; return c }()},
		{Workload: "w", Config: func() Config { c := base.Config; c.PageShift = 13; return c }()},
		{Workload: "w", Config: func() Config { c := base.Config; c.L1D.Entries = 32; return c }()},
		// Two specs differing only in one client's rate fraction hash to
		// distinct spec digests, which must key distinct captures.
		{Workload: "w", Spec: "5a1f0b0c8d2e4f6a7b8c9d0e1f2a3b4c", Config: base.Config},
		{Workload: "w", Spec: "5a1f0b0c8d2e4f6a7b8c9d0e1f2a3b4d", Config: base.Config},
	}
	seen := map[[32]byte]int{fingerprint(base): -1}
	for i, k := range mut {
		h := fingerprint(k)
		if j, dup := seen[h]; dup {
			t.Errorf("key %d collides with %d", i, j)
		}
		seen[h] = i
	}
}

// TestPersistentOverBudgetWritesNothing: a capture abandoned with
// ErrOverBudget in a persistent cache leaves nothing in the capture
// directory. A later cache with room for the stream captures it once
// and persists it.
func TestPersistentOverBudgetWritesNothing(t *testing.T) {
	recs := testRecords(3000)
	cfg := testConfig(5000)
	probe, err := Capture(trace.NewSliceSource(recs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	bufBytes := probe.FootprintBytes()
	dir := t.TempDir()
	key := Key{Workload: "w", Config: cfg}
	open := sliceOpen(recs)

	small, err := NewPersistent(bufBytes-1, dir)
	if err != nil {
		t.Fatal(err)
	}
	writes0, diskErrs0 := obsCacheDiskWrites.Value(), obsCacheDiskErrors.Value()
	if _, err := small.GetOrCaptureFrom(key, open); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
	if d := obsCacheDiskWrites.Value() - writes0; d != 0 {
		t.Errorf("over-budget capture counted %d disk writes, want 0", d)
	}
	if d := obsCacheDiskErrors.Value() - diskErrs0; d != 0 {
		t.Errorf("over-budget capture counted %d disk errors, want 0", d)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("over-budget capture left %s in the capture directory", e.Name())
	}

	roomy, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	misses0 := obsCacheMisses.Value()
	s, err := roomy.GetOrCaptureFrom(key, open)
	if err != nil {
		t.Fatalf("cache with room for the stream: %v", err)
	}
	if d := obsCacheMisses.Value() - misses0; d != 1 {
		t.Errorf("cache with room ran %d captures, want 1", d)
	}
	if s.FootprintBytes() != bufBytes {
		t.Errorf("captured %d bytes, want %d", s.FootprintBytes(), bufBytes)
	}
	if _, err := os.Stat(roomy.store.streamPath(key)); err != nil {
		t.Errorf("capture was not persisted: %v", err)
	}
}

// TestStoreGCReclaimsSpillEraRecordFiles: older binaries stored a
// capture that spilled as a header-only .l2s beside a .chtr record
// file. The size-budget GC still groups the .chtr with its .l2s, so
// evicting that group frees both files, and a newer current group
// survives.
func TestStoreGCReclaimsSpillEraRecordFiles(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(5000)
	cur := Key{Workload: "current", Config: cfg}
	if _, err := cache.GetOrCaptureFrom(cur, sliceOpen(testRecords(3000))); err != nil {
		t.Fatal(err)
	}
	curPath := cache.store.streamPath(cur)
	info, err := os.Stat(curPath)
	if err != nil {
		t.Fatal(err)
	}

	oldMeta := cache.store.streamPath(Key{Workload: "spill-era", Config: cfg})
	oldRecords := strings.TrimSuffix(oldMeta, ".l2s") + ".chtr"
	hdr := make([]byte, storeHeaderSize)
	copy(hdr, storeMagic)
	hdr[storeFlagOffset] = 1
	if err := os.WriteFile(oldMeta, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldRecords, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	for _, p := range []string{oldMeta, oldRecords} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	evict0 := obsStoreEvictions.Value()
	cache.SetStoreMaxBytes(info.Size()) // room for the current group alone
	if d := obsStoreEvictions.Value() - evict0; d != 1 {
		t.Errorf("store evictions delta = %d, want 1", d)
	}
	for _, p := range []string{oldMeta, oldRecords} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("spill-era file %s survived GC (err=%v)", filepath.Base(p), err)
		}
	}
	if _, err := os.Stat(curPath); err != nil {
		t.Errorf("current group was evicted: %v", err)
	}
}
