package main

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func metricByName(t *testing.T, name string) e2eMetric {
	t.Helper()
	for _, m := range e2eMetrics {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no metric %s", name)
	return e2eMetric{}
}

func TestJudgeVerdicts(t *testing.T) {
	wall := metricByName(t, "wall_s")           // lower is better, 25%
	rate := metricByName(t, "sim_minstr_per_s") // higher is better, 25%
	failed := metricByName(t, "failed_frac")    // absolute bound 0
	store := metricByName(t, "store_mib")
	// around scales a tight ten-run sample (spread 2%) to median m.
	around := func(m float64, n int) []float64 {
		base := []float64{1.0, 1.01, 0.99, 1.005, 0.995, 1.02, 0.98, 1.015, 0.985, 1.0}
		out := make([]float64, n)
		for i := range out {
			out[i] = m * base[i]
		}
		return out
	}
	// at stamps xs with start times t(i).
	at := func(xs []float64, t func(i int) float64) summary {
		started := make([]float64, len(xs))
		for i := range xs {
			started[i] = t(i)
		}
		return summarize("", xs, started)
	}
	// apart runs the two sides as separate sessions, b an hour after a.
	apart := func(a, b []float64) [2]summary {
		return [2]summary{
			at(a, func(i int) float64 { return float64(i) }),
			at(b, func(i int) float64 { return 3600 + float64(i) }),
		}
	}
	// paired interleaves them as pairs, alternating which side runs
	// first: a b, b a, a b, …
	paired := func(a, b []float64) [2]summary {
		return [2]summary{
			at(a, func(i int) float64 { return float64(10*i + i%2) }),
			at(b, func(i int) float64 { return float64(10*i + 1 - i%2) }),
		}
	}
	// aFirst interleaves them, but a always runs first.
	aFirst := func(a, b []float64) [2]summary {
		return [2]summary{
			at(a, func(i int) float64 { return float64(10 * i) }),
			at(b, func(i int) float64 { return float64(10*i + 1) }),
		}
	}
	noisy := []float64{7, 13, 10, 8, 12, 7, 13, 10, 8, 12}
	cases := []struct {
		name string
		m    e2eMetric
		ab   [2]summary
		want verdict
	}{
		{"within bound", wall, apart(around(10, 5), around(10.4, 5)), same},
		{"beyond bound", wall, apart(around(10, 5), around(13.2, 5)), worse},
		{"ten pairs, all won, beyond the parent's IQR", wall, paired(around(10, 10), around(9, 10)), better},
		{"ten runs apart cannot claim a gain", wall, apart(around(10, 10), around(9, 10)), same},
		{"a large gain measured apart is unresolved", wall, apart(around(10, 10), around(7, 10)), unresolved},
		{"pairs must alternate which side runs first", wall, aFirst(around(10, 10), around(9, 10)), same},
		{"five pairs cannot claim a gain", wall, paired(around(10, 5), around(9, 5)), same},
		{"a large gain on five pairs is unresolved", wall, paired(around(10, 5), around(7, 5)), unresolved},
		{"faster median but loses pairs", wall, paired(around(10, 10), []float64{9, 10.2, 8.9, 10.1, 8.95, 9, 10.2, 8.9, 10.1, 8.95}), same},
		{"parent too noisy", wall, apart([]float64{7, 13, 10, 8, 12}, around(10.5, 5)), unresolved},
		{"change too noisy", wall, apart(around(10, 5), []float64{11, 17, 13, 12, 15}), unresolved},
		{"noisy, but every run better", wall, paired(noisy, around(4, 10)), better},
		{"noisy, every run better, but apart", wall, apart(noisy, around(4, 10)), unresolved},
		{"higher is better, drop", rate, apart(around(10, 5), around(7.2, 5)), worse},
		{"higher is better, rise", rate, paired(around(10, 10), around(11.2, 10)), better},
		{"absolute: one failure", failed, apart([]float64{0}, []float64{0.2}), worse},
		{"absolute: none", failed, apart([]float64{0}, []float64{0}), same},
		{"no store on either side", store, apart([]float64{0, 0}, []float64{0, 0}), same},
		{"store appears", store, apart([]float64{0, 0}, []float64{5, 5}), worse},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, c.ab[0], c.ab[1]); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// Runs written to one result file accumulate when host, commit and
// seed match, so two sides run alternately pair up in compare.
func TestWriteResultAppendsRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "side.json")
	rep := func(wall, started float64, failed int) resultFile {
		return resultFile{
			Host: hostInfo{NProc: 2, CPUModel: "cpuA", Commit: "abc"},
			Run: &runResult{Seed: 1, Reps: 1, Workloads: []runWorkload{{Name: "timing", Digest: "d",
				Attempted: 1, Failed: failed, Metrics: map[string]summary{
					"wall_s":      summarize("s", []float64{wall}, []float64{started}),
					"failed_frac": failedFrac(failed, 1),
				}}}},
		}
	}
	for i, r := range []resultFile{rep(1, 10, 0), rep(2, 20, 0), rep(3, 30, 1)} {
		if err := writeResult(path, r); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	w := got.Run.Workloads[0]
	if got.Run.Reps != 3 || w.Attempted != 3 || w.Failed != 1 {
		t.Errorf("reps %d, attempted %d, failed %d; want 3, 3, 1", got.Run.Reps, w.Attempted, w.Failed)
	}
	if s := w.Metrics["wall_s"]; !slices.Equal(s.Samples, []float64{1, 2, 3}) || !slices.Equal(s.Started, []float64{10, 20, 30}) || s.Median != 2 {
		t.Errorf("wall_s %+v", s)
	}
	if f := w.Metrics["failed_frac"].Median; !near(f, 1.0/3) {
		t.Errorf("failed_frac %v, want 1/3", f)
	}

	other := rep(4, 40, 0)
	other.Run.Seed = 2
	if err := writeResult(path, other); err != nil {
		t.Fatal(err)
	}
	if got, _ := readResult(path); got.Run.Reps != 1 || got.Run.Seed != 2 {
		t.Errorf("another seed kept %d reps of seed %d", got.Run.Reps, got.Run.Seed)
	}
}

func TestCompareRefusesOtherHostsAndFlagsWorse(t *testing.T) {
	dir := t.TempDir()
	res := func(name, cpu string, wall []float64) string {
		r := resultFile{
			Host: hostInfo{NProc: 2, CPUModel: cpu},
			Run: &runResult{Seed: 1, Workloads: []runWorkload{{Name: "timing",
				Metrics: map[string]summary{"wall_s": summarize("s", wall, nil)}}}},
		}
		path := filepath.Join(dir, name+".json")
		if err := writeResult(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := res("a", "cpuA", []float64{1, 1.01, 0.99})
	slower := res("slower", "cpuA", []float64{1.3, 1.31, 1.29, 1.3})
	other := res("other", "cpuB", []float64{1, 1.01, 0.99})

	var out bytes.Buffer
	worse, err := cmdCompare([]string{a, slower}, &out)
	if err != nil || !worse {
		t.Errorf("30%% slower: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "timing       wall_s") {
		t.Errorf("no wall_s row:\n%s", out.String())
	}
	worse, err = cmdCompare([]string{a, a}, &out)
	if err != nil || worse {
		t.Errorf("self-compare: worse=%v err=%v", worse, err)
	}
	if _, err := cmdCompare([]string{a, other}, &out); err == nil {
		t.Error("compared results from different CPU models")
	}
	if code := run([]string{"compare", a, slower}, &out, &out); code != 1 {
		t.Errorf("compare with a worse verdict exited %d, want 1", code)
	}
}
