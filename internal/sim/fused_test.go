package sim

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/workloads"
)

var (
	decodePasses   = obs.Default.Counter("chirp_l2stream_decode_passes_total", "")
	derivedBuilds  = obs.Default.Counter("chirp_l2stream_derived_builds_total", "")
	derivedCorrupt = obs.Default.Counter("chirp_l2stream_derived_corrupt_total", "")
)

// viewDecls declares every view family that decodes the stream: the
// access view, the signature view of each CHiRP history mix, and GHRP's.
func viewDecls() []*decodedView {
	ds := []*decodedView{accessViewD, ghrpSigsD}
	for _, c := range chirpSigConfigs() {
		ds = append(ds, chirpSigsDecl(c, chirpSigsKey(c)))
	}
	return ds
}

// TestFusedViewBuildsMatchSingle: one fused decode pass over every
// decoding view family builds, bit for bit, what one pass per family
// builds — the access view over the access-only decoder, the rest over
// the full one — on a stream from each of the eight categories. Then a
// fused ReplayMulti over every registered policy, whose views all come
// from one pass, assembles the same replay view and signature
// sequences as one fresh stream per policy does.
func TestFusedViewBuildsMatchSingle(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(100000)
	cfg.PrefetchDistance = 4
	for _, cat := range workloads.Categories {
		name := cat + "-000"
		s := captureFor(t, name, cfg)
		ds := viewDecls()
		before := decodePasses.Value()
		fused, err := buildViews(s, ds)
		if err != nil {
			t.Fatalf("%s: fused build: %v", name, err)
		}
		if d := decodePasses.Value() - before; d != 1 {
			t.Errorf("%s: fused build of %d views took %d decode passes, want 1", name, len(ds), d)
		}
		for i, d := range ds {
			single, err := buildViews(s, []*decodedView{d})
			if err != nil {
				t.Fatalf("%s: %s alone: %v", name, d.spec.Key, err)
			}
			if !reflect.DeepEqual(fused[i], single[0]) {
				t.Errorf("%s: fused %s differs from its single-view build", name, d.spec.Key)
			}
		}

		pols := allPolicies(t)
		all, err := viewsFor(captureFor(t, name, cfg), pols, cfg)
		if err != nil {
			t.Fatalf("%s: views for every policy: %v", name, err)
		}
		for j, p := range pols {
			one, err := viewsFor(captureFor(t, name, cfg), []tlb.Policy{p}, cfg)
			if err != nil {
				t.Fatalf("%s/%s: views: %v", name, p.Name(), err)
			}
			compareViews(t, fmt.Sprintf("%s/%s", name, p.Name()), all.rv, one.rv)
			if !reflect.DeepEqual(all.chirpSigs[j], one.chirpSigs[0]) {
				t.Errorf("%s/%s: fused CHiRP signatures differ from a one-policy build", name, p.Name())
			}
			if one.ghrpSigs != nil && !reflect.DeepEqual(all.ghrpSigs, one.ghrpSigs) {
				t.Errorf("%s/%s: fused GHRP signatures differ from a one-policy build", name, p.Name())
			}
		}
	}
}

// sidecarPath returns the .l2d file in dir that holds derived key dkey.
func sidecarPath(t *testing.T, dir, dkey string) string {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(dkey))
	ps, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("*-d%016x.l2d", h.Sum64())))
	if err != nil || len(ps) != 1 {
		t.Fatalf("sidecar for %s: %v (%v)", dkey, ps, err)
	}
	return ps[0]
}

// TestReplayMultiBuildsMissingViewsInOnePass: with one view memoized,
// the rest on disk except one deleted sidecar and one corrupt one, a
// ReplayMulti over every policy builds exactly the missing and the
// corrupt view, together in one decode pass, loads the others, and
// still matches the direct reference. A second call decodes nothing.
func TestReplayMultiBuildsMissingViewsInOnePass(t *testing.T) {
	const wname = "db-003"
	cfg := DefaultTLBOnlyConfig(150000)
	cfg.PrefetchDistance = 4
	dir := t.TempDir()
	_, cold := persistentStreamFor(t, dir, wname, cfg)
	if _, err := ReplayMulti(cold, allPolicies(t), cfg); err != nil {
		t.Fatal(err)
	}

	chirpKey := chirpSigsKey(core.DefaultConfig())
	if !usesBranchHistory(core.DefaultConfig()) {
		t.Fatal("test premise broken: default CHiRP keeps no branch history")
	}
	if err := os.Remove(sidecarPath(t, dir, "ghrp:gs1")); err != nil {
		t.Fatal(err)
	}
	corrupt := sidecarPath(t, dir, chirpKey)
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x10
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, warm := persistentStreamFor(t, dir, wname, cfg)
	if _, err := accessViewFor(warm); err != nil {
		t.Fatal(err)
	}
	passes, builds, bad := decodePasses.Value(), derivedBuilds.Value(), derivedCorrupt.Value()
	got, err := ReplayMulti(warm, allPolicies(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := decodePasses.Value() - passes; d != 1 {
		t.Errorf("%d decode passes, want 1", d)
	}
	if d := derivedBuilds.Value() - builds; d != 2 {
		t.Errorf("%d views built, want 2 (the deleted GHRP and the corrupt %s)", d, chirpKey)
	}
	if d := derivedCorrupt.Value() - bad; d != 1 {
		t.Errorf("%d sidecars rejected as corrupt, want 1", d)
	}
	for i, want := range directResults(t, wname, cfg) {
		if got[i] != want {
			t.Errorf("%s: replay diverged from RunTLBOnly\n direct: %+v\n replay: %+v", want.Policy, want, got[i])
		}
	}
	passes = decodePasses.Value()
	if _, err := ReplayMulti(warm, allPolicies(t), cfg); err != nil {
		t.Fatal(err)
	}
	if d := decodePasses.Value() - passes; d != 0 {
		t.Errorf("a replay with every view memoized decoded %d times, want 0", d)
	}
}

// TestReplayMultiConcurrentViews: ReplayMulti calls on one stream
// from several goroutines, over overlapping policy sets, build every
// view once and agree with the direct reference. CI runs it under the
// race detector.
func TestReplayMultiConcurrentViews(t *testing.T) {
	const wname = "web-001"
	cfg := DefaultTLBOnlyConfig(100000)
	cfg.PrefetchDistance = 2
	s := captureFor(t, wname, cfg)
	want := directResults(t, wname, cfg)
	names := PolicyNames()
	before := derivedBuilds.Value()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var idx []int
			var pols []tlb.Policy
			for i, n := range names {
				if (i+g)%3 == 0 {
					continue
				}
				p, err := NewPolicy(n)
				if err != nil {
					t.Error(err)
					return
				}
				idx = append(idx, i)
				pols = append(pols, p)
			}
			got, err := replayMulti(s, pols, cfg, 2)
			if err != nil {
				t.Error(err)
				return
			}
			for k, i := range idx {
				if got[k] != want[i] {
					t.Errorf("goroutine %d, %s: replay diverged from RunTLBOnly", g, names[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if d, n := derivedBuilds.Value()-before, uint64(len(s.DerivedKeys())); d != n {
		t.Errorf("%d view builds for %d distinct views", d, n)
	}
}
