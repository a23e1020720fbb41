package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// persistentStreamFor loads (or captures) a workload's stream through a
// fresh persistent cache over dir, so repeated calls against the same
// dir exercise the warm disk path.
func persistentStreamFor(t *testing.T, dir, name string, cfg TLBOnlyConfig) (*l2stream.Cache, *l2stream.Stream) {
	t.Helper()
	cache, err := l2stream.NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := StreamFor(cache, name, "", cfg, func() (trace.Source, error) {
		w := workloads.ByName(name)
		if w == nil {
			t.Fatalf("workload %s missing", name)
		}
		return trace.NewLimit(w.Source(), cfg.Instructions), nil
	})
	if err != nil {
		t.Fatalf("stream for %s: %v", name, err)
	}
	return cache, stream
}

func allPolicies(t *testing.T) []tlb.Policy {
	t.Helper()
	names := PolicyNames()
	pols := make([]tlb.Policy, len(names))
	for i, n := range names {
		pol, err := NewPolicy(n)
		if err != nil {
			t.Fatal(err)
		}
		pols[i] = pol
	}
	return pols
}

// TestReplayMultiPersistentWarmEquivalence gates the warm-persistent
// path: a first fused replay persists derived sidecars next to the
// capture; a second process (modelled by a fresh cache over the same
// directory) loads the stream and its views from disk and must still
// match every policy's direct run bit for bit.
func TestReplayMultiPersistentWarmEquivalence(t *testing.T) {
	const instructions = 200000
	for _, pd := range []int{0, 4} {
		cfg := DefaultTLBOnlyConfig(instructions)
		cfg.PrefetchDistance = pd
		for _, wname := range []string{"db-003", "spec-000"} {
			dir := t.TempDir()

			_, cold := persistentStreamFor(t, dir, wname, cfg)
			if _, err := ReplayMulti(cold, allPolicies(t), cfg); err != nil {
				t.Fatalf("%s pd=%d cold fused: %v", wname, pd, err)
			}
			if n := len(sidecarFiles(t, dir)); n == 0 {
				t.Fatalf("%s pd=%d: cold fused replay left no derived sidecars", wname, pd)
			}

			_, warm := persistentStreamFor(t, dir, wname, cfg)
			fused, err := ReplayMulti(warm, allPolicies(t), cfg)
			if err != nil {
				t.Fatalf("%s pd=%d warm fused: %v", wname, pd, err)
			}
			want := directResults(t, wname, cfg)
			for i, pname := range PolicyNames() {
				if fused[i] != want[i] {
					t.Errorf("%s/%s pd=%d: warm-persistent fused replay diverged from RunTLBOnly\n direct: %+v\n fused:  %+v",
						wname, pname, pd, want[i], fused[i])
				}
			}
		}
	}
}

// TestReplayMultiParallelEquivalence forces the worker pool wider than
// this machine may be (the public entry point sizes it to GOMAXPROCS),
// so the concurrent scheduling path is exercised even on one CPU.
func TestReplayMultiParallelEquivalence(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(200000)
	cfg.PrefetchDistance = 4
	stream := captureFor(t, "web-001", cfg)
	fused, err := replayMulti(stream, allPolicies(t), cfg, 4)
	if err != nil {
		t.Fatalf("parallel fused replay: %v", err)
	}
	want := directResults(t, "web-001", cfg)
	for i, pname := range PolicyNames() {
		if fused[i] != want[i] {
			t.Errorf("%s: parallel fused replay diverged from RunTLBOnly\n direct: %+v\n fused:  %+v", pname, want[i], fused[i])
		}
	}
}

// TestReplayMultiDerivedCorruptionRecovers: damaged or truncated
// sidecars must be treated as absent — the views rebuild from the
// stream and the results still match the direct runs.
func TestReplayMultiDerivedCorruptionRecovers(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(150000)
	cfg.PrefetchDistance = 4
	dir := t.TempDir()

	_, cold := persistentStreamFor(t, dir, "sci-002", cfg)
	if _, err := ReplayMulti(cold, allPolicies(t), cfg); err != nil {
		t.Fatal(err)
	}
	want := directResults(t, "sci-002", cfg)

	sidecars := sidecarFiles(t, dir)
	if len(sidecars) == 0 {
		t.Fatal("fused replay left no derived sidecars")
	}
	for i, p := range sidecars {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			data[len(data)/2] ^= 0x40 // bit damage
		} else {
			data = data[:len(data)/3] // truncation
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, warm := persistentStreamFor(t, dir, "sci-002", cfg)
	fused, err := ReplayMulti(warm, allPolicies(t), cfg)
	if err != nil {
		t.Fatalf("fused replay over corrupt sidecars: %v", err)
	}
	for i, pname := range PolicyNames() {
		if fused[i] != want[i] {
			t.Errorf("%s: replay after sidecar corruption diverged from RunTLBOnly\n direct: %+v\n fused:  %+v", pname, want[i], fused[i])
		}
	}
}

func sidecarFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.l2d"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStoreRejectsSpillEraCapture: older binaries stored a capture
// that spilled as a header-only .l2s — flag byte 1, buffer length 0 —
// beside a .chtr record file. Rewritten with a checksum that covers
// its scalars, such a header passes the length and checksum checks, so
// a store that ignored the flag would load a stream with events but no
// buffer and replay it as MPKI 0. The store must treat it as absent: the cache
// recaptures, and the replay equals RunTLBOnly.
func TestStoreRejectsSpillEraCapture(t *testing.T) {
	const wname = "db-003"
	cfg := DefaultTLBOnlyConfig(200000)
	dir := t.TempDir()
	persistentStreamFor(t, dir, wname, cfg)
	metas, err := filepath.Glob(filepath.Join(dir, "*.l2s"))
	if err != nil || len(metas) != 1 {
		t.Fatalf("want one stream file, got %v (%v)", metas, err)
	}
	data, err := os.ReadFile(metas[0])
	if err != nil {
		t.Fatal(err)
	}
	// Header layout: flag byte at 40, CRC-32C of everything from byte
	// 48 on at [44,48), the event count at [64,72), the buffer length
	// at [120,128).
	hdr := data[:128]
	if binary.LittleEndian.Uint64(hdr[64:]) == 0 {
		t.Fatal("test premise broken: the header counts no events")
	}
	hdr[40] = 1
	binary.LittleEndian.PutUint64(hdr[120:], 0)
	binary.LittleEndian.PutUint32(hdr[44:], crc32.Checksum(hdr[48:], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(metas[0], hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(strings.TrimSuffix(metas[0], ".l2s")+".chtr", []byte("CHTR"), 0o644); err != nil {
		t.Fatal(err)
	}

	cache, err := l2stream.NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	names := PolicyNames()
	factories := make([]PolicyFactory, len(names))
	for i, n := range names {
		factories[i] = mustFactoryFor(t, n)
	}
	misses := obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	before := misses.Value()
	got, err := RunMulti(context.Background(), RunSpec{Workload: workloads.ByName(wname), Config: cfg, Cache: cache}, factories)
	if err != nil {
		t.Fatal(err)
	}
	if d := misses.Value() - before; d != 1 {
		t.Errorf("cache ran %d captures, want 1 (recapture past the spill-era header)", d)
	}
	want := directResults(t, wname, cfg)
	for i, n := range names {
		if got[i] != want[i] {
			t.Errorf("%s: replay diverged from RunTLBOnly\n direct: %+v\n replay: %+v", n, want[i], got[i])
		}
	}
}

// TestReplayMultiBudget pins the cache's per-capture cap from the
// replay side. A capture whose encoded buffer fits the cap is kept
// even when the old charge (32 B per event plus 32 B per access on top
// of the buffer) would not have fit, and a capture whose buffer alone
// exceeds the cap is abandoned with ErrOverBudget. Either way RunMulti
// must reproduce per-policy direct runs bit for bit.
func TestReplayMultiBudget(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(200000)
	cfg.PrefetchDistance = 2
	const wname = "db-003"
	w := workloads.ByName(wname)
	open := func() (trace.Source, error) {
		return trace.NewLimit(w.Source(), cfg.Instructions), nil
	}
	probe := captureFor(t, wname, cfg)
	bufBytes := probe.FootprintBytes()
	oldCharge := bufBytes + int64(probe.Events()+probe.Accesses()+1)*32

	names := PolicyNames()
	factories := make([]PolicyFactory, len(names))
	for i, n := range names {
		factories[i] = mustFactoryFor(t, n)
	}
	direct := directResults(t, wname, cfg)

	for _, tc := range []struct {
		name    string
		budget  int64
		wantErr error
	}{
		{"buffer-fits", (bufBytes + oldCharge) / 2, nil},
		{"buffer-over-budget", bufBytes - 1, l2stream.ErrOverBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := l2stream.NewCache(tc.budget)
			_, err := StreamFor(cache, wname, "", cfg, open)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("budget %d (buffer %d, old charge %d): capture error %v, want %v",
					tc.budget, bufBytes, oldCharge, err, tc.wantErr)
			}
			fused, err := RunMulti(context.Background(), RunSpec{Workload: w, Config: cfg, Cache: cache}, factories)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range names {
				if fused[i] != direct[i] {
					t.Errorf("%s: RunMulti diverged from RunTLBOnly\n direct: %+v\n fused:  %+v", n, direct[i], fused[i])
				}
			}
		})
	}
}

// blockTestRecords synthesises a randomized trace of n single-
// instruction records (Skip 0, so record i ends at instruction i+1)
// that misses the default L1s often — code and data spread over
// thousands of pages — with branches of every kind, and ends in a run
// of ALU records at one PC, which produce no access events after the
// first.
func blockTestRecords(seed uint64, n int) []trace.Record {
	rng := trace.NewRNG(seed)
	recs := make([]trace.Record, n)
	pc := uint64(0x400000)
	for i := range recs {
		if i >= n-16 {
			recs[i] = trace.Record{PC: pc, Class: trace.ClassALU}
			continue
		}
		if rng.Intn(4) == 0 {
			pc = 0x400000 + uint64(rng.Intn(4096))<<12 // jump to a cold code page
		}
		pc += uint64(4 * (1 + rng.Intn(4)))
		cls := trace.Class(rng.Intn(trace.NumClasses))
		rec := trace.Record{PC: pc, Class: cls}
		switch {
		case cls.IsMemory():
			rec.EA = uint64(rng.Intn(4096)) << 12
		case cls.IsBranch():
			rec.Taken = rng.Bool(0.5) || cls != trace.ClassCondBranch
			rec.Target = pc + uint64(rng.Intn(1<<16))
		}
		recs[i] = rec
	}
	return recs
}

// fullEvents is the test-only reference decode: the whole stream as one
// fully populated []Event, decoded an event at a time.
func fullEvents(t *testing.T, s *l2stream.Stream) []l2stream.Event {
	t.Helper()
	var evs []l2stream.Event
	d := s.Decode()
	var ev l2stream.Event
	for d.Next(&ev) {
		evs = append(evs, ev)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	return evs
}

// refReplayView, refCHiRPSigs and refGHRPSigs compute each derived view
// from a fully decoded event slice, one event at a time.
func refReplayView(evs []l2stream.Event, pd int) *replayView {
	v := &replayView{accessView: accessView{warmIdx: -1}}
	var pf *stridePrefetcher
	if pd > 0 {
		pf = newStridePrefetcher(pd)
		v.pfOff = []uint32{0}
	}
	for _, ev := range evs {
		switch ev.Kind {
		case l2stream.EventWarmup:
			v.warmIdx = len(v.pc)
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			v.pc = append(v.pc, ev.PC)
			v.vpn = append(v.vpn, ev.VPN)
			if pf != nil {
				v.pfVPN = append(v.pfVPN, pf.observe(ev.PC, ev.VPN)...)
				v.pfOff = append(v.pfOff, uint32(len(v.pfVPN)))
			}
		}
	}
	return v
}

func refCHiRPSigs(evs []l2stream.Event, cfg core.Config) []uint32 {
	q := core.NewSigSequencer(cfg)
	var out []uint32
	for _, ev := range evs {
		switch ev.Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			sig, psig := q.OnAccess(ev.PC)
			out = append(out, uint32(sig)|uint32(psig)<<16)
		case l2stream.EventBranch:
			q.OnBranch(ev.PC, ev.Conditional, ev.Indirect)
		}
	}
	return out
}

func refGHRPSigs(evs []l2stream.Event) []uint64 {
	var h policy.GHRPHistory
	var out []uint64
	for _, ev := range evs {
		switch ev.Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			out = append(out, h.Signature(ev.PC))
		case l2stream.EventBranch:
			h.OnBranch(ev.PC, ev.Conditional, ev.Taken)
		}
	}
	return out
}

// markerIndex returns the warmup marker's position in evs, counting
// only events keep accepts, or -1 without a marker.
func markerIndex(evs []l2stream.Event, keep func(l2stream.EventKind) bool) int {
	i := 0
	for _, ev := range evs {
		if ev.Kind == l2stream.EventWarmup {
			return i
		}
		if keep(ev.Kind) {
			i++
		}
	}
	return -1
}

// TestBlockBuildersMatchReference checks each block-decoded derived-
// view builder — the replay view (access columns over NextAccessBlock,
// plus the prefetch schedule built from them) and the CHiRP and GHRP
// signature sequences (over NextBlock, or NextAccessBlock for CHiRP
// variants without branch history, which must also equal the
// signatures of the access PCs alone) — against a reference computed from
// the fully decoded event slice, on randomized streams, with prefetch
// distance 0 and 4, and with the warmup marker absent, mid-stream,
// trailing every access, and at the 256-event block boundary of either
// decoder.
func TestBlockBuildersMatchReference(t *testing.T) {
	const n = 2048 // records; a power of two, so m/n is exact
	all := func(l2stream.EventKind) bool { return true }
	accessOnly := func(k l2stream.EventKind) bool { return k != l2stream.EventBranch }

	for _, seed := range []uint64{1, 2, 3} {
		recs := blockTestRecords(seed, n)
		// captureAt captures recs with the warmup boundary at the end of
		// record m-1 (m = 0: no marker) and decodes it in full.
		captureAt := func(m int) (*l2stream.Stream, []l2stream.Event) {
			cfg := DefaultTLBOnlyConfig(n)
			cfg.WarmupFraction = float64(m) / n
			s, err := l2stream.Capture(trace.NewSliceSource(recs), CaptureConfig(cfg), 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s, fullEvents(t, s)
		}
		// boundaryAt finds the first boundary position whose marker sits
		// at index DecodeBlockSize-1 or later under keep; the marker
		// advances at most two events per record, so it lands on one of
		// the two events either side of the block boundary.
		boundaryAt := func(keep func(l2stream.EventKind) bool) int {
			lo, hi := 1, n
			for lo < hi {
				mid := (lo + hi) / 2
				if _, evs := captureAt(mid); markerIndex(evs, keep) >= l2stream.DecodeBlockSize-1 {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			return lo
		}
		cases := []struct {
			name string
			m    int
			keep func(l2stream.EventKind) bool
		}{
			{"absent", 0, nil},
			{"mid-stream", n / 2, nil},
			{"trailing", n - 4, nil},
			{"full-block-boundary", boundaryAt(all), all},
			{"access-block-boundary", boundaryAt(accessOnly), accessOnly},
		}
		for _, tc := range cases {
			s, evs := captureAt(tc.m)
			name := fmt.Sprintf("seed%d/%s", seed, tc.name)
			switch {
			case tc.keep != nil:
				if i := markerIndex(evs, tc.keep); i != l2stream.DecodeBlockSize-1 && i != l2stream.DecodeBlockSize {
					t.Fatalf("%s: marker at %d, not at the block boundary", name, i)
				}
			case tc.m == 0:
				if markerIndex(evs, all) != -1 {
					t.Fatalf("%s: stream has a warmup marker", name)
				}
			case tc.name == "trailing":
				if markerIndex(evs, accessOnly) != int(s.Accesses()) {
					t.Fatalf("%s: marker does not trail every access", name)
				}
			}
			if s.Events() < 4*l2stream.DecodeBlockSize {
				t.Fatalf("%s: %d events span too few blocks", name, s.Events())
			}

			for _, pd := range []int{0, 4} {
				cfg := DefaultTLBOnlyConfig(n)
				cfg.PrefetchDistance = pd
				got, err := viewsFor(s, nil, cfg)
				if err != nil {
					t.Fatalf("%s pd=%d: %v", name, pd, err)
				}
				compareViews(t, fmt.Sprintf("%s pd=%d", name, pd), got.rv, refReplayView(evs, pd))
			}
			for _, ccfg := range chirpSigConfigs() {
				want := refCHiRPSigs(evs, ccfg)
				sigs, err := decodedViews(s, []*decodedView{chirpSigsDecl(ccfg, chirpSigsKey(ccfg))})
				if err != nil {
					t.Fatalf("%s: chirp sigs: %v", name, err)
				}
				if !slices.Equal(sigs[0].([]uint32), want) {
					t.Errorf("%s: chirp %s signature sequence diverges from the reference", name, ccfg.SignatureKey())
				}
				if !usesBranchHistory(ccfg) {
					av, err := accessViewFor(s)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(refCHiRPSigsFromPCs(ccfg, av.pc), want) {
						t.Errorf("%s: chirp %s signatures from the access PCs diverge from the reference", name, ccfg.SignatureKey())
					}
				}
			}
			gsigs, err := decodedViews(s, []*decodedView{ghrpSigsD})
			if err != nil {
				t.Fatalf("%s: ghrp sigs: %v", name, err)
			}
			if want := refGHRPSigs(evs); !slices.Equal(gsigs[0].([]uint64), want) {
				t.Errorf("%s: ghrp signature sequence diverges from the reference", name)
			}
		}
	}
}

// chirpSigConfigs returns CHiRP configurations covering every history
// mix the signature builders distinguish: none, path only, path and
// conditional, and all three.
func chirpSigConfigs() []core.Config {
	var out []core.Config
	for _, use := range [][3]bool{{false, false, false}, {true, false, false}, {true, true, false}, {true, true, true}} {
		c := core.DefaultConfig()
		c.UsePathHistory, c.UseCondHistory, c.UseIndirectHistory = use[0], use[1], use[2]
		out = append(out, c)
	}
	return out
}

func compareViews(t *testing.T, name string, got, want *replayView) {
	t.Helper()
	if got.warmIdx != want.warmIdx {
		t.Errorf("%s: warmIdx = %d, want %d", name, got.warmIdx, want.warmIdx)
	}
	if !slices.Equal(got.pc, want.pc) || !slices.Equal(got.vpn, want.vpn) {
		t.Errorf("%s: access columns diverge from the reference", name)
	}
	if (got.pfOff == nil) != (want.pfOff == nil) {
		t.Fatalf("%s: prefetch schedule present = %v, want %v", name, got.pfOff != nil, want.pfOff != nil)
	}
	if !slices.Equal(got.pfOff, want.pfOff) || !slices.Equal(got.pfVPN, want.pfVPN) {
		t.Errorf("%s: prefetch schedule diverges from the reference", name)
	}
}
