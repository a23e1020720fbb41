package main

import (
	"context"
	"errors"
	"io"
	"testing"
)

// TestSmokeRunAndTrace drives run and trace in-process over every
// workload cut to -n 4 -instr 200000: chirpexp builds, every set-up and
// run agrees, the direct reference path and the traced run both match
// chirpexp's output, and every metric is reported.
func TestSmokeRunAndTrace(t *testing.T) {
	ctx := context.Background()
	h, err := newHarness(ctx, "..", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	var ws []workload
	for _, w := range benchWorkloads {
		if w.N != 0 {
			w.N = 4
		}
		w.Instr = 200_000
		ws = append(ws, w)
	}

	run, err := runE2E(ctx, h, ws, 7, 1, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, w := range run.Workloads {
		if w.Failed != 0 {
			t.Errorf("%s: %d failed runs", w.Name, w.Failed)
		}
		for _, m := range e2eMetrics {
			if s, ok := w.Metrics[m.Name]; !ok || s.N == 0 {
				t.Errorf("%s: no %s", w.Name, m.Name)
			}
		}
		if w.Metrics["wall_s"].Median <= 0 || w.Metrics["setup_s"].N != setups {
			t.Errorf("%s: wall %v, %d set-ups", w.Name, w.Metrics["wall_s"].Median, w.Metrics["setup_s"].N)
		}
	}

	// At this scale the engine's per-job overhead is a visible share of
	// microsecond jobs, so the 5% layer-sum check is the one check the
	// smoke run waives.
	tr, err := traceWorkloads(ctx, h, ws, 7, nil, io.Discard)
	for _, e := range leafErrors(err) {
		if !errors.Is(e, errLayerSum) {
			t.Errorf("trace: %v", e)
		}
	}
	if tr == nil {
		t.FailNow()
	}
	for _, w := range tr.Workloads {
		if len(w.Metrics) != len(layerMetrics()) {
			t.Errorf("%s: %d per-layer metrics", w.Name, len(w.Metrics))
		}
		if w.Metrics["engine.jobs"].Value == 0 || w.Metrics["traced.wall_s"].Value <= 0 {
			t.Errorf("%s: traced nothing: %+v", w.Name, w.Metrics)
		}
	}
}

// leafErrors flattens errors.Join trees.
func leafErrors(err error) []error {
	if err == nil {
		return nil
	}
	j, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return []error{err}
	}
	var out []error
	for _, e := range j.Unwrap() {
		out = append(out, leafErrors(e)...)
	}
	return out
}
