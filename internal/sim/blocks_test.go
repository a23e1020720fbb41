package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// setBlockAccesses lowers the block size of every pass for the rest of
// the test, so short streams cross block boundaries.
func setBlockAccesses(t *testing.T, n int) {
	old := blockAccesses
	blockAccesses = n
	t.Cleanup(func() { blockAccesses = old })
}

// blockRecordsN is the length of the synthetic record slices the
// block tests capture: about 4700 accesses.
const blockRecordsN = 8192

// markedConfig is the configuration whose capture of blockRecordsN
// records emits the warmup marker as record m's instructions complete
// (before its accesses), prefetching at distance pd.
func markedConfig(m, pd int) TLBOnlyConfig {
	cfg := DefaultTLBOnlyConfig(blockRecordsN)
	cfg.WarmupFraction = float64(m) / blockRecordsN
	cfg.PrefetchDistance = pd
	return cfg
}

// warmIndex captures recs under markedConfig(m, 0) and returns the
// marker's access index and the stream's access count.
func warmIndex(t *testing.T, recs []trace.Record, m int) (warm, accesses int) {
	t.Helper()
	s, err := l2stream.Capture(trace.NewSliceSource(recs), CaptureConfig(markedConfig(m, 0)), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	av, err := accessViewFor(s)
	if err != nil {
		t.Fatal(err)
	}
	return av.warmIdx, len(av.pc)
}

// blockMarkers returns marker positions (as markedConfig's m) that put
// the warmup marker before the first access, on a boundary between two
// blocks of bs accesses, and after the last access.
func blockMarkers(t *testing.T, recs []trace.Record, bs int) map[string]int {
	t.Helper()
	out := map[string]int{"first": 1, "last": blockRecordsN - 4}
	if w, _ := warmIndex(t, recs, 1); w != 0 {
		t.Fatalf("test premise broken: marker at access %d, not before the first", w)
	}
	if w, n := warmIndex(t, recs, blockRecordsN-4); w != n {
		t.Fatalf("test premise broken: marker at access %d of %d, not after the last", w, n)
	}
	// The marker's index grows with m, at most two accesses per
	// record: search each boundary k*bs in turn for an m that lands on
	// it exactly.
	for k := 1; ; k++ {
		lo, hi := 1, blockRecordsN-4
		for lo < hi {
			mid := (lo + hi) / 2
			if w, _ := warmIndex(t, recs, mid); w >= k*bs {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		w, n := warmIndex(t, recs, lo)
		if w >= n {
			t.Fatalf("test premise broken: no marker position lands on a boundary of %d-access blocks", bs)
		}
		if w == k*bs {
			out["boundary"] = lo
			return out
		}
	}
}

// blockRows replays every registered policy, plus an OPT row, over
// stream under cfg, each cell once.
func blockRows(t *testing.T, stream *l2stream.Stream, cfg TLBOnlyConfig) []TLBOnlyResult {
	t.Helper()
	rows, err := replayCells(map[string]TLBOnlyResult{}, stream, cellsOf(cfg, allPolicies(t), nil))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := runOPT(context.Background(), RunSpec{Config: cfg}, stream, map[string]TLBOnlyResult{})
	if err != nil {
		t.Fatal(err)
	}
	return append(rows, opt)
}

// TestBlockPassMatchesDirect: with blocks of 1, 7 and 1000 accesses,
// every registered policy at prefetch distances 0, 1 and 4, and the
// OPT oracle, replay row for row what RunTLBOnly reports — over a
// stream without a store (the decode pass builds every block), cold in
// a store (the decode pass writes the sidecars) and warm (every block
// read from the sidecars, no decode pass) — with the warmup marker
// before the first access, on a block boundary, and after the last
// access.
func TestBlockPassMatchesDirect(t *testing.T) {
	recs := blockTestRecords(7, blockRecordsN)
	for _, bs := range []int{1, 7, 1000} {
		setBlockAccesses(t, bs)
		for marker, m := range blockMarkers(t, recs, bs) {
			for _, pd := range []int{0, 1, 4} {
				cfg := markedConfig(m, pd)
				name := fmt.Sprintf("blocks=%d/marker=%s/pd=%d", bs, marker, pd)
				var want []TLBOnlyResult
				for _, p := range allPolicies(t) {
					res, err := RunTLBOnly(trace.NewSliceSource(recs), p, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, res)
				}
				vpns, err := CollectL2Stream(trace.NewSliceSource(recs), cfg)
				if err != nil {
					t.Fatal(err)
				}
				opt, err := RunTLBOnly(trace.NewSliceSource(recs), newOPT(vpns), cfg)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, opt)

				dir := t.TempDir()
				key := l2stream.Key{Workload: "blocks", Config: CaptureConfig(cfg)}
				open := func() (trace.Source, error) { return trace.NewSliceSource(recs), nil }
				for _, mode := range []string{"no store", "cold", "warm"} {
					cache := l2stream.NewCache(0)
					if mode != "no store" {
						if cache, err = l2stream.NewPersistent(0, dir); err != nil {
							t.Fatal(err)
						}
					}
					s, err := cache.GetOrCaptureFrom(key, open)
					if err != nil {
						t.Fatal(err)
					}
					if s.Accesses() < uint64(3*bs) {
						t.Fatalf("%s: test premise broken: %d accesses span fewer than three blocks", name, s.Accesses())
					}
					passes := decodePasses.Value()
					got := blockRows(t, s, cfg)
					s.Close()
					if d := decodePasses.Value() - passes; (mode == "warm") != (d == 0) {
						t.Errorf("%s %s: %d decode passes", name, mode, d)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s: replay diverged from RunTLBOnly\n got:  %+v\n want: %+v", name, mode, got, want)
					}
				}
			}
		}
	}
}

// flipPolicy is LRU that, once armed, flips one byte of a file when it
// sees its at-th access: a sidecar damaged between two blocks of the
// walk it takes part in.
type flipPolicy struct {
	tlb.Policy
	seen  *int
	at    int
	armed *bool
	path  *string
}

func (f flipPolicy) OnAccess(a *tlb.Access) {
	if *f.seen++; *f.seen == f.at && *f.armed {
		*f.armed = false
		flipLastByte(*f.path)
	}
	f.Policy.OnAccess(a)
}

// flipLastByte flips the last byte of the file at path, panicking on
// failure: it runs inside a walk.
func flipLastByte(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	data[len(data)-1] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		panic(err)
	}
}

// TestBlockPassSidecarFlipReruns: a byte of the CHiRP signature
// sidecar flipped while a warm pass walks its second block — after the
// pass read the sidecar's first blocks, before it reads its last — is
// caught by the sidecar's checksum before any row is returned. The
// pass runs again with fresh policies and that family built from the
// stream, its rows equal the direct path's, and the flip counts one
// corrupt sidecar.
func TestBlockPassSidecarFlipReruns(t *testing.T) {
	const bs = 1000
	setBlockAccesses(t, bs)
	ws := workloads.SuiteN(1)
	cfg := DefaultTLBOnlyConfig(1_000_000)
	var (
		seen  int
		armed bool
		path  string
	)
	flip := NamedFactory{Name: "flip-lru", New: func() tlb.Policy {
		seen = 0
		return flipPolicy{Policy: mustPolicy(t, "lru"), seen: &seen, at: bs + bs/2, armed: &armed, path: &path}
	}}
	passes := []Pass{{Scope: "flip", Config: cfg, Policies: append(namedFactories(t, "chirp", "ghrp"), flip)}}
	want, err := RunPasses(context.Background(), ws, passes, SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func() [][]SuiteResult {
		cache, err := l2stream.NewPersistent(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunPasses(context.Background(), ws, passes, SuiteOptions{Workers: 1, StreamCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	run() // cold: writes the sidecars
	path = sidecarPath(t, dir, chirpSigsKey(core.DefaultConfig()))
	s, err := l2stream.Capture(trace.NewLimit(ws[0].Source(), cfg.Instructions), CaptureConfig(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Accesses() <= 3*bs {
		t.Fatalf("test premise broken: %d accesses span fewer than four blocks", s.Accesses())
	}
	armed = true
	corrupt, passes0, builds := derivedCorrupt.Value(), decodePasses.Value(), derivedBuilds.Value()
	got := run()
	if armed {
		t.Fatal("test premise broken: the sidecar was never flipped")
	}
	if d := derivedCorrupt.Value() - corrupt; d != 1 {
		t.Errorf("%d corrupt sidecars counted, want 1", d)
	}
	if d, b := decodePasses.Value()-passes0, derivedBuilds.Value()-builds; d != 1 || b != 1 {
		t.Errorf("the rerun took %d decode passes building %d views, want 1 building the CHiRP view", d, b)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows after the flip diverged from the direct path:\n got:  %+v\n want: %+v", got, want)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("the rerun did not rewrite the CHiRP sidecar: %v", err)
	}
}

// mustPolicy builds the registered policy name.
func mustPolicy(t *testing.T, name string) tlb.Policy {
	t.Helper()
	p, err := NewPolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// panicMid is LRU that panics on its at-th access.
type panicMid struct {
	tlb.Policy
	seen *int
	at   int
}

func (p panicMid) OnAccess(a *tlb.Access) {
	if *p.seen++; *p.seen == p.at {
		panic("policy bug in a middle block")
	}
	p.Policy.OnAccess(a)
}

// TestBlockPassPanicBlamesCell: a policy that panics in a middle block
// of a cold pass is blamed on its own cell, the other cells' rows equal
// the direct path's, and no staging file is left in the capture
// directory.
func TestBlockPassPanicBlamesCell(t *testing.T) {
	const bs = 1000
	setBlockAccesses(t, bs)
	ws := workloads.SuiteN(1)
	cfg := DefaultTLBOnlyConfig(1_000_000)
	healthy := namedFactories(t, "lru", "chirp", "ghrp")
	bad := NamedFactory{Name: "panic-mid", New: func() tlb.Policy {
		return panicMid{Policy: mustPolicy(t, "lru"), seen: new(int), at: 2*bs + 1}
	}}
	want, err := RunPasses(context.Background(), ws, []Pass{{Scope: "p", Config: cfg, Policies: healthy}}, SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := l2stream.NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	pols := []NamedFactory{healthy[0], healthy[1], bad, healthy[2]}
	got, err := RunPasses(context.Background(), ws, []Pass{{Scope: "p", Config: cfg, Policies: pols}}, SuiteOptions{Workers: 1, StreamCache: cache})
	var je *engine.JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %v carries no job identity", err)
	}
	if want := (engine.Key{Scope: "p", Workload: ws[0].Name, Policy: "panic-mid"}); je.Key != want {
		t.Errorf("blamed %v, want %v", je.Key, want)
	}
	if got[0][2] != (SuiteResult{}) {
		t.Errorf("the panicking cell left a row: %+v", got[0][2])
	}
	if rows := append(got[0][:2:2], got[0][3]); !reflect.DeepEqual(rows, want[0]) {
		t.Errorf("healthy cells diverged from the direct path:\n got:  %+v\n want: %+v", rows, want[0])
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Errorf("staging files left behind: %v", left)
	}
}
