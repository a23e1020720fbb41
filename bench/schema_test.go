package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile is BENCHMARK.json, decoded strictly: an unknown key is
// an error.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkFileSchema(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads, want 2-8", len(b.Workloads))
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", len(b.EndToEnd))
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1-60", b.RunSeconds)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v", b.Paths)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// BENCHMARK.json states what the code measures: its workloads, metrics
// and bounds must be the harness's own tables, and every per-layer
// metric must name the end-to-end metric and the workloads it should
// move.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, allWorkloads) {
		t.Errorf("workloads %v, harness has %v", names, allWorkloads)
	}

	var published []e2eMetric
	for _, m := range e2eMetrics {
		if m.Published {
			published = append(published, m)
		}
	}
	if len(published) != len(b.EndToEnd) {
		t.Fatalf("%d end-to-end metrics, the harness publishes %d", len(b.EndToEnd), len(published))
	}
	for i, m := range b.EndToEnd {
		d := published[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: file %+v, harness %+v", i, m, d)
		}
	}

	lms := layerMetrics()
	if len(lms) != len(b.PerLayer) {
		t.Fatalf("%d per-layer metrics, the traced run reports %d", len(b.PerLayer), len(lms))
	}
	for i, m := range b.PerLayer {
		if lm := lms[i]; m.Name != lm.Name || m.Unit != lm.Unit || m.Better != lm.Better {
			t.Errorf("per-layer %d: file %+v, harness %+v", i, m, lm)
		}
	}
	isE2E := func(n string) bool {
		for _, m := range e2eMetrics {
			if m.Name == n {
				return true
			}
		}
		return false
	}
	for _, l := range layers {
		if l.Module != "traced run" && len(l.Moves) == 0 {
			t.Errorf("layer %s names no end-to-end metric it should move", l.Module)
		}
		if len(l.On) == 0 {
			t.Errorf("layer %s names no workload it should move", l.Module)
		}
		for _, m := range l.Moves {
			if !isE2E(m) {
				t.Errorf("layer %s moves unknown metric %s", l.Module, m)
			}
		}
		for _, w := range append(slices.Clone(l.On), l.Flat...) {
			if !slices.Contains(allWorkloads, w) {
				t.Errorf("layer %s names unknown workload %s", l.Module, w)
			}
		}
	}
}
