package sim

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
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
		fused, err := decodedViews(s, ds)
		if err != nil {
			t.Fatalf("%s: fused build: %v", name, err)
		}
		if d := decodePasses.Value() - before; d != 1 {
			t.Errorf("%s: fused build of %d views took %d decode passes, want 1", name, len(ds), d)
		}
		for i, d := range ds {
			single, err := decodedViews(s, []*decodedView{d})
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

// TestReplayMultiBuildsMissingViewsInOnePass: with every view on disk
// except one deleted sidecar and one corrupt one, a ReplayMulti over
// every policy builds exactly the missing and the corrupt view,
// together in one decode pass, loads the others, and still matches the
// direct reference. A second call, over the rewritten sidecars,
// decodes nothing.
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
		t.Errorf("a replay with every view on disk decoded %d times, want 0", d)
	}
}

// TestReplayMultiConcurrentViews: ReplayMulti calls on one stream
// from several goroutines, over overlapping policy sets, agree with
// the direct reference. CI runs it under the race detector.
func TestReplayMultiConcurrentViews(t *testing.T) {
	const wname = "web-001"
	cfg := DefaultTLBOnlyConfig(100000)
	cfg.PrefetchDistance = 2
	s := captureFor(t, wname, cfg)
	want := directResults(t, wname, cfg)
	names := PolicyNames()
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
}

// refCHiRPSigsFromPCs computes the signature sequence of a CHiRP
// variant without branch history from the access PCs alone: its
// sequencer ignores every branch, so the PCs determine the sequence.
// It is the reference for the signature views such variants build in
// the fused pass over access events.
func refCHiRPSigsFromPCs(cfg core.Config, pcs []uint64) []uint32 {
	q := core.NewSigSequencer(cfg)
	out := make([]uint32, len(pcs))
	for i, pc := range pcs {
		sig, psig := q.OnAccess(pc)
		out[i] = uint32(sig) | uint32(psig)<<16
	}
	return out
}

// fig6CHiRPs returns the Figure 6 CHiRP variants without branch
// history (chirp-pc: PC only; chirp-path: PC and path history) and
// two with it (chirp-path-cond's history mix and the full chirp).
func fig6CHiRPs() (pc, path, pathCond, full core.Config) {
	cs := chirpSigConfigs()
	return cs[0], cs[1], cs[2], cs[3]
}

// TestPCOnlySignatureViewsMatchPCBuilder: the signature views of
// chirp-pc and chirp-path, built in the fused decode pass, equal the
// signatures of the access view's PC column — alone, mixed with
// branch-history variants (whose views equal the full-event reference)
// and mixed with GHRP — on a fresh stream from each of the eight
// categories.
func TestPCOnlySignatureViewsMatchPCBuilder(t *testing.T) {
	pc, path, pathCond, full := fig6CHiRPs()
	sets := map[string][]core.Config{
		"chirp-pc":    {pc},
		"chirp-path":  {path},
		"with-branch": {full, pc, pathCond, path},
		"with-ghrp":   {pc, path},
	}
	cfg := DefaultTLBOnlyConfig(100000)
	for _, cat := range workloads.Categories {
		name := cat + "-000"
		for set, cs := range sets {
			pols := make([]tlb.Policy, len(cs))
			for j, c := range cs {
				pols[j] = core.MustNew(c)
			}
			if set == "with-ghrp" {
				pols = append(pols, policy.NewGHRP(4096))
			}
			s := captureFor(t, name, cfg)
			got, err := viewsFor(s, pols, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, set, err)
			}
			evs := fullEvents(t, s)
			for j, c := range cs {
				want := refCHiRPSigs(evs, c)
				if !usesBranchHistory(c) {
					want = refCHiRPSigsFromPCs(c, got.rv.pc)
				}
				if !slices.Equal(got.chirpSigs[j], want) {
					t.Errorf("%s/%s: chirp %s signatures diverge from the reference", name, set, c.SignatureKey())
				}
			}
			if set == "with-ghrp" && !slices.Equal(got.ghrpSigs, refGHRPSigs(evs)) {
				t.Errorf("%s/%s: ghrp signatures diverge from the reference", name, set)
			}
		}
	}
}

// TestPCOnlySignatureViewsOneDecodePass: a set whose only CHiRPs keep
// no branch history builds the access view and its signature views —
// one per signature key, shared by variants that differ only in table
// size — in exactly one decode pass, which writes one sidecar per
// view, and a second fetch reads them and decodes nothing.
func TestPCOnlySignatureViewsOneDecodePass(t *testing.T) {
	pc, path, _, _ := fig6CHiRPs()
	small := pc
	small.TableEntries = 512
	cfg := DefaultTLBOnlyConfig(100000)
	dir := t.TempDir()
	_, s := persistentStreamFor(t, dir, "db-003", cfg)
	pols := func() []tlb.Policy {
		return []tlb.Policy{core.MustNew(pc), core.MustNew(path), core.MustNew(small)}
	}
	passes, builds := decodePasses.Value(), derivedBuilds.Value()
	if _, err := viewsFor(s, pols(), cfg); err != nil {
		t.Fatal(err)
	}
	if d := decodePasses.Value() - passes; d != 1 {
		t.Errorf("%d decode passes, want 1", d)
	}
	if d := derivedBuilds.Value() - builds; d != 3 {
		t.Errorf("%d views built, want 3 (the access view and two signature views)", d)
	}
	for _, key := range []string{accessViewD.spec.Key, chirpSigsKey(pc), chirpSigsKey(path)} {
		sidecarPath(t, dir, key)
	}
	if got := sidecarFiles(t, dir); len(got) != 3 {
		t.Errorf("the decode pass wrote sidecars %v, want 3", got)
	}
	passes = decodePasses.Value()
	if _, err := viewsFor(s, pols(), cfg); err != nil {
		t.Fatal(err)
	}
	if d := decodePasses.Value() - passes; d != 0 {
		t.Errorf("a second fetch decoded %d times, want 0", d)
	}
}

// TestLiveCHiRPPrefetchMatchesReplay: a live CHiRP tags each prefetch
// fill with the signature its sequencer latched for the triggering
// access, and a fed one with the replayed view's. Direct RunTLBOnly
// must equal one ReplayMulti pass for chirp, chirp-pc and chirp-path
// at prefetch distances 1 and 4, on a workload from each of the eight
// categories.
func TestLiveCHiRPPrefetchMatchesReplay(t *testing.T) {
	pc, path, _, full := fig6CHiRPs()
	cs := []core.Config{full, pc, path}
	for _, pd := range []int{1, 4} {
		cfg := DefaultTLBOnlyConfig(400000)
		cfg.PrefetchDistance = pd
		for _, cat := range workloads.Categories {
			wname := cat + "-000"
			pols := make([]tlb.Policy, len(cs))
			for j, c := range cs {
				pols[j] = core.MustNew(c)
			}
			replayed, err := ReplayMulti(captureFor(t, wname, cfg), pols, cfg)
			if err != nil {
				t.Fatalf("%s pd=%d: %v", wname, pd, err)
			}
			w := workloads.ByName(wname)
			for j, c := range cs {
				direct, err := RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), core.MustNew(c), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if replayed[j] != direct {
					t.Errorf("%s/%s pd=%d: replay diverged from RunTLBOnly\n direct: %+v\n replay: %+v",
						wname, c.SignatureKey(), pd, direct, replayed[j])
				}
			}
		}
	}
}
