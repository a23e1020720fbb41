package pipeline

import (
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/trace"
)

// scripted builds a source from an explicit record list repeated n
// times.
func scripted(recs []trace.Record, n int) trace.Source {
	all := make([]trace.Record, 0, len(recs)*n)
	for i := 0; i < n; i++ {
		all = append(all, recs...)
	}
	return trace.NewSliceSource(all)
}

func TestPredictableBranchesConvergeToNoPenalty(t *testing.T) {
	// A tight always-taken loop: after warmup the branch unit must
	// predict direction and target, so cycles/instruction approaches
	// the base CPI.
	loop := []trace.Record{
		{PC: 0x400000, Class: trace.ClassALU, Skip: 7},
		{PC: 0x400020, Class: trace.ClassCondBranch, Taken: true, Target: 0x400000, Skip: 0},
	}
	cfg := DefaultConfig(100_000, 150)
	m, err := New(cfg, policy.NewLRU(), lruFactory)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(trace.NewLimit(scripted(loop, 100_000), 100_000))
	if err != nil {
		t.Fatal(err)
	}
	cpi := float64(res.Cycles) / float64(res.Instructions)
	if cpi > 1.1 {
		t.Errorf("predictable loop CPI = %.3f, want ≈ 1 (branch unit not converging)", cpi)
	}
	if res.BranchAccuracy < 0.99 {
		t.Errorf("branch accuracy = %.4f, want ≈ 1", res.BranchAccuracy)
	}
}

func TestRandomBranchesPayThePenalty(t *testing.T) {
	// Alternating-direction branch with data-random pattern cannot be
	// fully predicted when the outcome is truly random; CPI must carry
	// misprediction penalties.
	rng := trace.NewRNG(3)
	var recs []trace.Record
	for i := 0; i < 50_000; i++ {
		taken := rng.Bool(0.5)
		target := uint64(0x400100)
		recs = append(recs, trace.Record{PC: 0x400000, Class: trace.ClassALU, Skip: 3})
		recs = append(recs, trace.Record{PC: 0x400010, Class: trace.ClassCondBranch, Taken: taken, Target: target})
	}
	cfg := DefaultConfig(uint64(len(recs)*5), 150)
	m, err := New(cfg, policy.NewLRU(), lruFactory)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.BranchAccuracy > 0.75 {
		t.Errorf("random branch accuracy = %.3f, implausibly high", res.BranchAccuracy)
	}
	cpi := float64(res.Cycles) / float64(res.Instructions)
	if cpi < 1.5 {
		t.Errorf("random-branch CPI = %.3f, want ≥ 1.5 (20-cycle penalties missing)", cpi)
	}
}

func TestCHiRPHistoriesFedByPipeline(t *testing.T) {
	// Branch records must reach the CHiRP policy through the pipeline's
	// commit path.
	ch := core.MustNew(core.DefaultConfig())
	cfg := DefaultConfig(50_000, 150)
	m, err := New(cfg, ch, lruFactory)
	if err != nil {
		t.Fatal(err)
	}
	// PCs carry non-zero bits in the ranges the histories record
	// ([11:4] for branches, [3:2] for the path).
	recs := []trace.Record{
		{PC: 0x4002b4, Class: trace.ClassCondBranch, Taken: true, Target: 0x400310, Skip: 4},
		{PC: 0x40031c, Class: trace.ClassLoad, EA: 0x10000000, Skip: 4},
		{PC: 0x4003d8, Class: trace.ClassUncondIndirect, Taken: true, Target: 0x4002b4, Skip: 4},
	}
	if _, err := m.Run(trace.NewLimit(scripted(recs, 10_000), 50_000)); err != nil {
		t.Fatal(err)
	}
	h := ch.Histories()
	if h.Cond() == 0 {
		t.Error("conditional history never fed by the pipeline")
	}
	if h.Indirect() == 0 {
		t.Error("indirect history never fed by the pipeline")
	}
	if h.Path() == 0 {
		t.Error("path history never fed (no L2 TLB accesses observed)")
	}
}

func TestColdCachesCostMoreThanWarm(t *testing.T) {
	// Two identical halves: the second half (warm caches/TLBs) must run
	// at higher IPC than the cold first half. The warmup split gives us
	// exactly the second-half measurement; compare against a run with
	// no warmup exclusion.
	w := scripted([]trace.Record{
		{PC: 0x400000, Class: trace.ClassLoad, EA: 0x20000000, Skip: 9},
		{PC: 0x400010, Class: trace.ClassLoad, EA: 0x20001000, Skip: 9},
	}, 5000)
	cfgWarm := DefaultConfig(100_000, 150)
	m1, err := New(cfgWarm, policy.NewLRU(), lruFactory)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := m1.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	cfgCold := DefaultConfig(100_000, 150)
	cfgCold.WarmupFraction = 0
	m2, err := New(cfgCold, policy.NewLRU(), lruFactory)
	if err != nil {
		t.Fatal(err)
	}
	w.Reset()
	cold, err := m2.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if warm.IPC <= cold.IPC {
		t.Errorf("post-warmup IPC (%.4f) not above whole-run IPC (%.4f)", warm.IPC, cold.IPC)
	}
}
