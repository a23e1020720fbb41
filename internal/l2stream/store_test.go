package l2stream

import (
	"encoding/binary"
	"os"
	"testing"

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
		s, err := first.GetOrCapture(k, func(opts CaptureOptions) (*Stream, error) {
			return Capture(trace.NewSliceSource(recs), cfg, opts)
		})
		if err != nil {
			t.Fatal(err)
		}
		want[k.Workload] = s
	}
	if d := obsCacheDiskWrites.Value() - writes0; d != 2 {
		t.Errorf("disk writes delta = %d, want 2", d)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	misses0, diskHits0 := obsCacheMisses.Value(), obsCacheDiskHits.Value()
	for _, k := range keys {
		got, err := second.GetOrCapture(k, func(CaptureOptions) (*Stream, error) {
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

// TestPersistentSpillAdoption: a capture that spills inside a
// persistent cache is adopted into the store (its record file renamed,
// not copied), survives Close, and a later cache replays it from the
// same file.
func TestPersistentSpillAdoption(t *testing.T) {
	recs := testRecords(4000)
	cfg := testConfig(6000)
	dir := t.TempDir()
	c, err := NewPersistent(64, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Workload: "w", Config: cfg}
	s, err := c.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Spilled() {
		t.Fatal("64-byte budget must force a spill")
	}
	if !s.Persistent() {
		t.Fatal("spilled capture was not adopted into the store")
	}
	path := s.SpillPath()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Close deleted the store-owned spill file: %v", err)
	}

	c2, err := NewPersistent(64, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	s2, err := c2.GetOrCapture(key, func(CaptureOptions) (*Stream, error) {
		t.Error("adopted spill was re-captured")
		return nil, os.ErrInvalid
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Spilled() || s2.Records() != s.Records() {
		t.Fatalf("loaded spill stream diverges: spilled=%v records=%d want %d",
			s2.Spilled(), s2.Records(), s.Records())
	}
	fs, err := trace.OpenFile(s2.SpillPath())
	if err != nil {
		t.Fatal(err)
	}
	n := len(trace.Collect(fs))
	fs.Close()
	if uint64(n) != s.Records() {
		t.Errorf("adopted file holds %d records, capture consumed %d", n, s.Records())
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
			if _, err := c.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
				return Capture(trace.NewSliceSource(recs), cfg, opts)
			}); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			meta, _ := (&store{dir: dir}).paths(key)
			tc.mod(t, meta)

			c2, err := NewPersistent(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			captures := 0
			s, err := c2.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
				captures++
				return Capture(trace.NewSliceSource(recs), cfg, opts)
			})
			if err != nil {
				t.Fatalf("corrupted store file broke GetOrCapture: %v", err)
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
			defer c3.Close()
			if _, err := c3.GetOrCapture(key, func(CaptureOptions) (*Stream, error) {
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
