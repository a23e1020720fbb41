package sim

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// openStreamFiles counts this process's open descriptors on .l2s
// files in dir, deleted ones included. It skips the test where
// /proc/self/fd does not exist.
func openStreamFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) && strings.Contains(target, ".l2s") {
			n++
		}
	}
	return n
}

// liveHeap returns the heap bytes still reachable after a collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestStreamEventsStoredOnce pins where a persisted stream's events
// live: capturing and persisting db-003 at 3 M instructions allocates
// the encoder's chunks and no second buffer of the encoded size, and
// once the store has saved the stream, or loaded it, the stream holds
// none of its events on the heap: they are in its store file only.
func TestStreamEventsStoredOnce(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(3_000_000)
	w := workloads.ByName("db-003")
	open := func() (trace.Source, error) { return trace.NewLimit(w.Source(), cfg.Instructions), nil }
	dir := t.TempDir()
	get := func() *l2stream.Stream {
		cache, err := l2stream.NewPersistent(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := StreamFor(cache, w.Name, "", cfg, open)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// A capture without a store first, so what the workload's source
	// sets up once is not charged to the measured capture.
	probe, err := StreamFor(l2stream.NewCache(0), w.Name, "", cfg, open)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(probe.FootprintBytes())
	if size <= 3*64<<10 {
		t.Fatalf("test premise broken: %d encoded bytes span fewer than four 64 KiB encoder chunks", size)
	}
	probe.Close()

	// The last chunk's slack and the capture's own state; a second
	// copy of the events would add size again.
	const slack = 128 << 10
	var s *l2stream.Stream
	h0 := liveHeap()
	if n := heapAllocated(func() { s = get() }); n > size+slack {
		t.Errorf("capturing and persisting %d encoded bytes allocated %d bytes, want at most %d", size, n, size+slack)
	}
	if n := liveHeap() - h0; n > int64(size/4) {
		t.Errorf("a saved stream of %d encoded bytes keeps %d heap bytes live, want under %d", size, n, size/4)
	}
	runtime.KeepAlive(s)
	s.Close()
	s = nil

	h0 = liveHeap()
	loads := obs.Default.Counter("chirp_l2stream_cache_disk_hits_total", "")
	loads0 := loads.Value()
	s = get()
	if loads.Value() != loads0+1 {
		t.Fatal("the second stream was not loaded from the store")
	}
	if n := liveHeap() - h0; n > int64(size/4) {
		t.Errorf("a loaded stream of %d encoded bytes keeps %d heap bytes live, want under %d", size, n, size/4)
	}
	runtime.KeepAlive(s)
	s.Close()
}

// TestRunPassesStreamEvictedBeforeViews: a -capturedir budget smaller
// than one stream evicts each stream file as soon as it is saved, so
// every view build decodes a file already gone from the directory.
// The rows equal the direct path's.
func TestRunPassesStreamEvictedBeforeViews(t *testing.T) {
	ctx := context.Background()
	ws := workloads.SuiteN(2)
	passes := testPasses(t)
	direct, err := RunPasses(ctx, ws, passes, SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := l2stream.NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetStoreMaxBytes(1)
	evictions := obs.Default.Counter("chirp_l2stream_store_evictions_total", "")
	builds := obs.Default.Counter("chirp_l2stream_derived_builds_total", "")
	evict0, builds0 := evictions.Value(), builds.Value()
	got, err := RunPasses(ctx, ws, passes, SuiteOptions{Workers: 2, StreamCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if d := evictions.Value() - evict0; d < uint64(len(ws)) {
		t.Fatalf("test premise broken: %d evictions, want at least one per stream (%d)", d, len(ws))
	}
	if builds.Value() == builds0 {
		t.Fatal("test premise broken: no view was built")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.l2s")); len(left) != 0 {
		t.Fatalf("test premise broken: %v survived a 1-byte budget", left)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Errorf("rows over evicted stream files diverged from the direct path:\n got:    %+v\n direct: %+v", got, direct)
	}
}

// TestFlippedStreamFileFailsRun: a byte of an .l2s file's events
// flipped after a job loaded the stream and before it decodes it ends
// the job's replay, and its OPT cell, in an error rather than a row.
// The next run over the directory rejects the file at load and
// recaptures, and its rows equal the direct path's.
func TestFlippedStreamFileFailsRun(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultTLBOnlyConfig(testInstr)
	w := workloads.ByName("db-003")
	fs := namedFactories(t, "lru", "chirp", "ghrp")
	factories := make([]PolicyFactory, len(fs))
	policies := make([]tlb.Policy, len(fs))
	for i, f := range fs {
		factories[i], policies[i] = f.New, f.New()
	}
	dir := t.TempDir()
	_, cold := persistentStreamFor(t, dir, w.Name, cfg)
	cold.Close()
	_, s := persistentStreamFor(t, dir, w.Name, cfg)
	defer s.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "*.l2s"))
	if len(files) != 1 {
		t.Fatalf("want one .l2s file, found %v", files)
	}
	f, err := os.OpenFile(files[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	off := 128 + s.FootprintBytes()/2 // past the 128-byte header
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	spec := RunSpec{Workload: w, Config: cfg}
	if rs, err := measure(ctx, spec, s, map[string]TLBOnlyResult{}, policies); err == nil {
		t.Errorf("a flipped stream file replayed into rows %+v", rs)
	}
	if res, err := runOPT(ctx, spec, s, map[string]TLBOnlyResult{}); err == nil {
		t.Errorf("a flipped stream file gave an OPT row %+v", res)
	}

	cache, err := l2stream.NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	misses := obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	misses0 := misses.Value()
	got, err := RunMulti(ctx, RunSpec{Workload: w, Config: cfg, Cache: cache}, factories)
	if err != nil {
		t.Fatal(err)
	}
	if d := misses.Value() - misses0; d != 1 {
		t.Errorf("the run after the flip ran %d captures, want 1", d)
	}
	want, err := RunMulti(ctx, RunSpec{Workload: w, Config: cfg}, factories)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the recaptured run diverged from the direct path:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestSuiteClosesStreamFiles: a -capturedir suite run, cold or warm,
// a run without a capture directory, whose streams are unnamed files
// in TMPDIR, and a RunMulti call leave no .l2s descriptor open. The
// suite runs MPKI passes and a timing pass. The collector is off for
// the test, so the owners' own Close calls are what is checked, not
// the files' finalizers.
func TestSuiteClosesStreamFiles(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	ws := workloads.SuiteN(2)
	passes := append(testPasses(t), Pass{Scope: "timing", Config: DefaultTLBOnlyConfig(testInstr),
		Policies: namedFactories(t, "lru", "chirp"), Timing: true})
	dir, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, run := range []string{"cold", "warm", "no-dir"} {
		var cache *l2stream.Cache
		if run == "no-dir" {
			cache, dir = l2stream.NewCache(0), tmp
		} else {
			cache = mustPersistent(t, dir)
		}
		if _, err := RunPasses(ctx, ws, passes, SuiteOptions{Workers: 2, StreamCache: cache}); err != nil {
			t.Fatal(err)
		}
		if n := openStreamFiles(t, dir); n != 0 {
			t.Errorf("%s suite run left %d .l2s descriptors open", run, n)
		}
		fs := namedFactories(t, "lru", "chirp")
		if _, err := RunMulti(ctx, RunSpec{Workload: ws[0], Config: passes[0].Config, Cache: cache},
			[]PolicyFactory{fs[0].New, fs[1].New}); err != nil {
			t.Fatal(err)
		}
		if n := openStreamFiles(t, dir); n != 0 {
			t.Errorf("%s RunMulti call left %d .l2s descriptors open", run, n)
		}
	}
	if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
		t.Errorf("captures without a capture directory left %v in TMPDIR", ents)
	}
}

// TestStagingFailureGoesDirect: a capture whose staging file cannot be
// created (no capture directory, and TMPDIR names no directory) or
// renamed into place (a directory stands at the store file's path) is
// abandoned like an over-budget one, and the job takes the direct
// path. An MPKI pass and a timing pass give rows equal to RunTLBOnly
// and to the one-policy pipeline. The staging failure counts one disk
// error and no over-budget capture, and leaves no staging file.
func TestStagingFailureGoesDirect(t *testing.T) {
	ctx := context.Background()
	w := workloads.ByName("db-003")
	ws := []*workloads.Workload{w}
	cfg := DefaultTLBOnlyConfig(testInstr)
	pols := namedFactories(t, "lru", "chirp")
	passes := []Pass{
		{Scope: "mpki", Config: cfg, Policies: pols},
		{Scope: "timing", Config: cfg, Policies: pols, Timing: true},
	}
	var wantMPKI []TLBOnlyResult
	for _, f := range pols {
		res, err := RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), f.New(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Policy = f.Name
		wantMPKI = append(wantMPKI, res)
	}
	wantTiming := timingCells(t, ws, pols, pipeline.DefaultConfig(testInstr, 150))

	// The store file's name, from a capture into a scratch directory.
	scratch := t.TempDir()
	s, err := StreamFor(mustPersistent(t, scratch), w.Name, "", cfg, func() (trace.Source, error) {
		return trace.NewLimit(w.Source(), cfg.Instructions), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	files, _ := filepath.Glob(filepath.Join(scratch, "*.l2s"))
	if len(files) != 1 {
		t.Fatalf("want one .l2s file, found %v", files)
	}

	diskErrors := obs.Default.Counter("chirp_l2stream_cache_disk_errors_total", "")
	spills := obs.Default.Counter("chirp_l2stream_cache_spills_total", "")
	for _, c := range []struct {
		name string
		// setup returns the cache and the directory a staging file
		// would be left in.
		setup func(t *testing.T) (*l2stream.Cache, string)
		// loadErrors counts the disk errors before the capture.
		loadErrors uint64
	}{
		{"no-dir", func(t *testing.T) (*l2stream.Cache, string) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", filepath.Join(tmp, "missing"))
			return l2stream.NewCache(0), tmp
		}, 0},
		// Reading the directory as a store file is one more disk error.
		{"dir", func(t *testing.T) (*l2stream.Cache, string) {
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, filepath.Base(files[0])), 0o755); err != nil {
				t.Fatal(err)
			}
			return mustPersistent(t, dir), dir
		}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cache, dir := c.setup(t)
			e0, s0 := diskErrors.Value(), spills.Value()
			rows, err := RunPasses(ctx, ws, passes, SuiteOptions{StreamCache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if d := diskErrors.Value() - e0; d != c.loadErrors+1 {
				t.Errorf("disk errors delta = %d, want %d", d, c.loadErrors+1)
			}
			if d := spills.Value() - s0; d != 0 {
				t.Errorf("over-budget delta = %d, want 0", d)
			}
			for i, r := range rows[0] {
				if r.TLBOnlyResult != wantMPKI[i] {
					t.Errorf("MPKI row %d diverged from RunTLBOnly:\n got:  %+v\n want: %+v", i, r.TLBOnlyResult, wantMPKI[i])
				}
			}
			for i, r := range rows[1] {
				if got := r.Timing(150); !reflect.DeepEqual(got, wantTiming[i].Result) {
					t.Errorf("timing row %d diverged from pipeline.New:\n got:  %+v\n want: %+v", i, got, wantTiming[i].Result)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
				t.Errorf("staging files left behind: %v", left)
			}
		})
	}
}

// mustPersistent opens a persistent stream cache over dir.
func mustPersistent(t *testing.T, dir string) *l2stream.Cache {
	t.Helper()
	cache, err := l2stream.NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	return cache
}
