package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// minPairs is the fewest paired runs a gain may rest on.
const minPairs = 10

// judge compares a change's runs b with the parent's runs a for one
// metric, by the choosing-metrics rules. It is worse when the median
// moved the wrong way by more than the bound. It is unresolved when
// either side's own spread is wider than the bound, unless every run of
// the change beats every run of the parent. It is better only when the
// two sides ran as at least ten interleaved pairs (see pairs), the
// change won nine tenths of them, and its median moved by more than the
// parent's interquartile range. An improvement beyond the bound that
// cannot meet that rule is unresolved too; anything else is the same.
// It also returns the move, positive when worse, as a share of a's
// median (absolute for absolute bounds, and when a's median is 0).
//
// Both sides' spreads count because separate runs on a shared host
// drift: three tight set-ups at one minute say little about the next.
func judge(m e2eMetric, sa, sb summary) (verdict, float64) {
	a, b := sa.Samples, sb.Samples
	ma, mb := median(a), median(b)
	diff := mb - ma
	if m.Better == "higher" {
		diff = -diff
	}
	limit, rel := m.Bound, diff
	if !m.Abs && ma != 0 {
		limit = m.Bound * math.Abs(ma)
		rel = diff / math.Abs(ma)
	}
	noisy := !m.Abs && max(spread(a), spread(b)) > m.Bound
	switch {
	case noisy && !allBetter(m, a, b):
		return unresolved, rel
	case !noisy && diff > limit:
		return worse, rel
	}
	q1, q3 := quartiles(a)
	if ps := pairs(sa, sb); len(ps) >= minPairs && -diff > q3-q1 && winShare(m, ps) >= 0.9 {
		return better, rel
	}
	if -diff > limit {
		return unresolved, rel
	}
	return same, rel
}

func beats(m e2eMetric, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// allBetter reports whether every run of b beats every run of a.
func allBetter(m e2eMetric, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, y := range b {
		for _, x := range a {
			if !beats(m, y, x) {
				return false
			}
		}
	}
	return true
}

// pairs matches a's runs with b's when the two sides ran as interleaved
// pairs: in start-time order every two successive runs hold one run of
// each side, and the side that ran first alternates from pair to pair.
// Runs measured separately, such as two `run` invocations minutes
// apart, are no pairs and give nil.
func pairs(a, b summary) [][2]float64 {
	if len(a.Samples) != len(b.Samples) || len(a.Started) != len(a.Samples) || len(b.Started) != len(b.Samples) {
		return nil
	}
	type run struct {
		t, v float64
		isB  bool
	}
	var rs []run
	for i, v := range a.Samples {
		rs = append(rs, run{a.Started[i], v, false})
	}
	for i, v := range b.Samples {
		rs = append(rs, run{b.Started[i], v, true})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].t < rs[j].t })
	var out [][2]float64
	for k := 0; k+1 < len(rs); k += 2 {
		first, second := rs[k], rs[k+1]
		if first.isB == second.isB || (k > 0 && first.isB == rs[k-2].isB) {
			return nil
		}
		if first.isB {
			first, second = second, first
		}
		out = append(out, [2]float64{first.v, second.v})
	}
	return out
}

// winShare is the share of pairs (a, b) that b wins; ties count for
// neither side.
func winShare(m e2eMetric, ps [][2]float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	wins := 0
	for _, p := range ps {
		if beats(m, p[1], p[0]) {
			wins++
		}
	}
	return float64(wins) / float64(len(ps))
}

// cmdCompare prints, per (workload, end-to-end metric), both medians,
// the move, the bound and the verdict. It reports whether any verdict
// is worse, and refuses results from different hosts.
func cmdCompare(args []string, w io.Writer) (bool, error) {
	if len(args) != 2 {
		return false, errors.New("usage: chirpbench compare a.json b.json")
	}
	a, err := readResult(args[0])
	if err != nil {
		return false, err
	}
	b, err := readResult(args[1])
	if err != nil {
		return false, err
	}
	if a.Run == nil || b.Run == nil {
		return false, errors.New("compare needs two results with a run section")
	}
	if a.Host.NProc != b.Host.NProc || a.Host.CPUModel != b.Host.CPUModel {
		return false, fmt.Errorf("results come from different hosts (%d × %q vs %d × %q); compare only runs from one host",
			a.Host.NProc, a.Host.CPUModel, b.Host.NProc, b.Host.CPUModel)
	}
	if a.Run.Seed != b.Run.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d)\n", a.Run.Seed, b.Run.Seed)
	}
	fmt.Fprintf(w, "a: %s%s  b: %s%s\n", a.Host.Commit, dirtyMark(a.Host), b.Host.Commit, dirtyMark(b.Host))
	fmt.Fprintf(w, "%-12s %-17s %12s %12s %9s %8s  %s\n", "workload", "metric", "a median", "b median", "move", "bound", "verdict")
	anyWorse := false
	for _, wa := range a.Run.Workloads {
		var wb *runWorkload
		for i := range b.Run.Workloads {
			if b.Run.Workloads[i].Name == wa.Name {
				wb = &b.Run.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-12s missing from b\n", wa.Name)
			continue
		}
		for _, m := range e2eMetrics {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			v, move := judge(m, sa, sb)
			anyWorse = anyWorse || v == worse
			bound, moveS := fmt.Sprintf("%.0f%%", 100*m.Bound), fmt.Sprintf("%+.1f%%", 100*move)
			if m.Abs {
				bound, moveS = fmt.Sprintf("%g", m.Bound), fmt.Sprintf("%+.3g", move)
			}
			fmt.Fprintf(w, "%-12s %-17s %12.4f %12.4f %9s %8s  %s\n", wa.Name, m.Name, sa.Median, sb.Median, moveS, bound, v)
		}
	}
	return anyWorse, nil
}

func dirtyMark(h hostInfo) string {
	if h.Dirty {
		return "-dirty"
	}
	return ""
}
