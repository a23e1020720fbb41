package sim

import (
	"context"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

const testInstr = 120_000

func testSource(t *testing.T, name string) trace.Source {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("workload %s missing", name)
	}
	return trace.NewLimit(w.Source(), testInstr)
}

func TestRunTLBOnlyBasics(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(testInstr)
	res, err := RunTLBOnly(testSource(t, "spec-000"), policy.NewLRU(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "lru" {
		t.Errorf("policy = %q", res.Policy)
	}
	if res.Instructions == 0 || res.L2Accesses == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.MPKI < 0 || res.MPKI > 1000 {
		t.Errorf("implausible MPKI %v", res.MPKI)
	}
	if res.Efficiency < 0 || res.Efficiency > 1 {
		t.Errorf("efficiency out of range: %v", res.Efficiency)
	}
}

func TestRunTLBOnlyDeterministic(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(testInstr)
	a, err := RunTLBOnly(testSource(t, "db-000"), policy.NewSRRIP(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTLBOnly(testSource(t, "db-000"), policy.NewSRRIP(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MPKI != b.MPKI || a.L2Misses != b.L2Misses {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestRunTLBOnlyWarmupShort(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(1_000_000)
	src := trace.NewLimit(workloads.ByName("spec-000").Source(), 1000)
	if _, err := RunTLBOnly(src, policy.NewLRU(), cfg); err == nil {
		t.Fatal("trace shorter than warmup must error")
	}
}

func TestTableAccountingSurfaced(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(testInstr)
	ch, err := NewPolicy("chirp")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTLBOnly(testSource(t, "db-000"), ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TableReads == 0 || res.TableWrites == 0 {
		t.Error("CHiRP table accounting not surfaced")
	}
	if res.TableAccessRate <= 0 || res.TableAccessRate > 2 {
		t.Errorf("table access rate = %v out of plausible range", res.TableAccessRate)
	}
}

func TestCollectL2StreamConsistent(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(testInstr)
	s1, err := CollectL2Stream(testSource(t, "sci-000"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := CollectL2Stream(testSource(t, "sci-000"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) == 0 || len(s1) != len(s2) {
		t.Fatalf("stream lengths: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("L2 stream not deterministic")
		}
	}
	// The stream must equal the L2 access count of a simulated run.
	res, err := RunTLBOnly(testSource(t, "sci-000"), policy.NewLRU(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(s1)) != res.L2Accesses {
		t.Errorf("stream length %d != L2 accesses %d", len(s1), res.L2Accesses)
	}
}

func TestRegistry(t *testing.T) {
	names := PolicyNames()
	if len(names) < 8 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, n := range names {
		p, err := NewPolicy(n)
		if err != nil {
			t.Fatalf("NewPolicy(%s): %v", n, err)
		}
		if p.Name() == "" {
			t.Errorf("policy %s has empty name", n)
		}
	}
	if _, err := NewPolicy("belady-magic"); err == nil {
		t.Error("unknown policy accepted")
	}
	fs, err := Factories(PaperPolicies)
	if err != nil || len(fs) != len(PaperPolicies) {
		t.Fatalf("Factories: %v", err)
	}
	// Factories must create fresh instances.
	if fs[0].New() == fs[0].New() {
		t.Error("factory returned a shared instance")
	}
}

func TestRunSuiteTLBOnly(t *testing.T) {
	ws := workloads.SuiteN(4)
	pols, err := Factories([]string{"lru", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTLBOnlyConfig(testInstr)
	results, err := RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg,
		SuiteOptions{Workers: 2, StreamCache: l2stream.NewCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("results = %d, want 8", len(results))
	}
	for i, r := range results {
		wantW := ws[i/2].Name
		wantP := pols[i%2].Name
		if r.Workload != wantW || r.Policy != wantP {
			t.Errorf("result %d = (%s, %s), want (%s, %s)", i, r.Workload, r.Policy, wantW, wantP)
		}
		if r.Profile == "" {
			t.Errorf("result %d missing profile", i)
		}
	}
}

func TestRunSuiteTiming(t *testing.T) {
	ws := workloads.SuiteN(2)
	pols, err := Factories([]string{"lru", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunSuiteTimingCtx(context.Background(), ws, pols, DefaultTLBOnlyConfig(testInstr), 150, SuiteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	for _, r := range results {
		if r.IPC <= 0 || r.IPC > 1 {
			t.Errorf("%s/%s IPC = %v, want (0, 1]", r.Workload, r.Policy, r.IPC)
		}
	}
}

func TestCollectReuseSamples(t *testing.T) {
	// Lifetime samples only appear once the 1024-entry L2 TLB starts
	// evicting, so this test needs a longer run than the others.
	const instr = 600_000
	cfg := DefaultTLBOnlyConfig(instr)
	samples, err := CollectReuseSamples(trace.NewLimit(workloads.ByName("db-000").Source(), instr), cfg, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no reuse samples collected")
	}
	reused, dead := 0, 0
	for _, s := range samples {
		if s.PC == 0 {
			t.Fatal("sample with zero PC")
		}
		if s.Reused {
			reused++
		} else {
			dead++
		}
	}
	if reused == 0 || dead == 0 {
		t.Errorf("degenerate labels: %d reused, %d dead", reused, dead)
	}
}

func TestOPTNeverLosesOnSuite(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(testInstr)
	for _, name := range []string{"spec-000", "sci-000"} {
		stream, err := CollectL2Stream(testSource(t, name), cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := RunTLBOnly(testSource(t, name), policy.NewOPT(policy.BuildOracle(stream)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pn := range PaperPolicies {
			p, err := NewPolicy(pn)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunTLBOnly(testSource(t, name), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// OPT minimises misses over the same L2 access stream; allow
			// a 2% slack for warmup-boundary accounting.
			if float64(opt.L2Misses) > float64(res.L2Misses)*1.02 {
				t.Errorf("%s: OPT (%d misses) beaten by %s (%d misses)", name, opt.L2Misses, pn, res.L2Misses)
			}
		}
	}
}

var _ tlb.Policy = (*reuseRecorder)(nil)

func TestFileReplayMatchesGenerator(t *testing.T) {
	// Materialising a workload to a trace file and replaying it must
	// produce bit-identical simulation results — the integration
	// contract across generator, binary format and driver.
	const instr = 150_000
	w := workloads.ByName("db-000")
	path := t.TempDir() + "/db-000.chtr"
	if _, _, err := trace.WriteFile(path, trace.NewLimit(w.Source(), instr)); err != nil {
		t.Fatal(err)
	}
	fs, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	cfg := DefaultTLBOnlyConfig(instr)
	chirpA, err := NewPolicy("chirp")
	if err != nil {
		t.Fatal(err)
	}
	fromGen, err := RunTLBOnly(trace.NewLimit(w.Source(), instr), chirpA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	chirpB, err := NewPolicy("chirp")
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := RunTLBOnly(fs, chirpB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fromGen.L2Misses != fromFile.L2Misses || fromGen.L2Accesses != fromFile.L2Accesses {
		t.Errorf("file replay diverged: gen (%d misses, %d accesses) vs file (%d, %d)",
			fromGen.L2Misses, fromGen.L2Accesses, fromFile.L2Misses, fromFile.L2Accesses)
	}
}
