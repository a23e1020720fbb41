package main

import (
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/workloads"
)

const sampleOut = `== fig6: feature/optimisation ablation (§III) ==
Figure 6 — feature/optimisation ablation (avg MPKI reduction vs LRU)
variant   measured  paper    description
ship      +4.61%    +0.88%   PC-only signature (SHiP, §III)
chirp     +9.14%    +28.21%  full CHiRP (+ indirect branch history)
-- fig6 done in 344ms --

== fig7: MPKI S-curve and averages (§VI-A) ==
benchmark,lru,chirp
db-000,1.5,1.25
spec-000,0.5,0.4
-- fig7 done in 1.2s --

== prefetch: sequential prefetch × replacement (extension X6) ==
policy  prefetch distance  mean MPKI  vs LRU/no-prefetch
lru     0                  2.000      +0.00%
lru     4                  1.500      +25.00%
-- prefetch done in 83ms --
`

func TestDigestIgnoresOnlyFooters(t *testing.T) {
	a := digest([]byte(sampleOut))
	slower := []byte(strings.ReplaceAll(sampleOut, "344ms", "2.5s"))
	if digest(slower) != a {
		t.Error("a different wall-clock footer changed the digest")
	}
	if digest([]byte(strings.ReplaceAll(sampleOut, "+4.61%", "+4.62%"))) == a {
		t.Error("a changed result left the digest unchanged")
	}
	if digest([]byte(strings.ReplaceAll(sampleOut, "-- fig6 done in 344ms --\n", ""))) != a {
		t.Error("removing a footer changed the digest")
	}
}

func TestSectionsAndCells(t *testing.T) {
	secs := sections([]byte(sampleOut))
	if len(secs) != 3 {
		t.Fatalf("got %d sections, want 3", len(secs))
	}
	if v, ok := tableCell(secs["fig6"], "chirp", 1, 1); !ok || v != "+9.14%" {
		t.Errorf("fig6 chirp cell = %q, %v", v, ok)
	}
	if v, ok := tableCell(secs["prefetch"], "lru 4", 2, 2); !ok || v != "1.500" {
		t.Errorf("prefetch lru/4 cell = %q, %v", v, ok)
	}
	if _, ok := tableCell(secs["fig6"], "lru", 1, 1); ok {
		t.Error("found a row that is not there")
	}
	rows := csvRows(secs["fig7"])
	if rows["spec-000"]["chirp"] != "0.4" || rows["db-000"]["lru"] != "1.5" {
		t.Errorf("csv rows = %v", rows)
	}
}

func TestCrossCheckCatchesDrift(t *testing.T) {
	ws := []*workloads.Workload{{Name: "db-000"}, {Name: "spec-000"}}
	fig7 := passesFor("fig7")[0]
	fig7.Policies = fig7.Policies[:1] // lru only
	ok := []passResult{{Pass: fig7, Vals: [][]float64{{1.5}, {0.5}}}}
	out := []byte(sampleOut)
	if err := crossCheck(out, ws, ok); err != nil {
		t.Fatalf("matching values rejected: %v", err)
	}
	bad := []passResult{{Pass: fig7, Vals: [][]float64{{1.5}, {0.5001}}}}
	if err := crossCheck(out, ws, bad); err == nil {
		t.Error("a drifted cell passed the cross-check")
	}
	pf := passesFor("prefetch")
	means := []passResult{
		{Pass: pf[0], Vals: [][]float64{{2}, {2}}},
		{Pass: pf[2], Vals: [][]float64{{1}, {2}}},
	}
	if err := crossCheck(out, ws, means); err != nil {
		t.Errorf("matching prefetch means rejected: %v", err)
	}
}

func TestPinsApplyToTheirInputsOnly(t *testing.T) {
	w, err := workloadByName("timing")
	if err != nil {
		t.Fatal(err)
	}
	p := pins{}
	p.set(w, 3, "aaa")
	if err := p.check(w, 3, "bbb"); err == nil {
		t.Error("a digest that differs from its pin passed")
	}
	if err := p.check(w, 4, "bbb"); err != nil {
		t.Errorf("a pin for seed 3 applied to seed 4: %v", err)
	}
	small := w
	small.N = 4
	if err := p.check(small, 3, "bbb"); err != nil {
		t.Errorf("a pin for -n %d applied to -n 4: %v", w.N, err)
	}
	fixed, err := workloadByName("tenant-long")
	if err != nil {
		t.Fatal(err)
	}
	p.set(fixed, 1, "ccc")
	if err := p.check(fixed, 9, "ddd"); err == nil {
		t.Error("a fixed-seed workload's pin did not apply to another seed")
	}
}
