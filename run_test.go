package chirp

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/adaline"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/sim"
)

// Compile-time proof that the facade aliases are the internal types,
// not copies: a value of the internal type must assign to the alias
// directly. If an alias drifts into a distinct defined type, this file
// stops compiling.
var (
	_ RunSpec          = sim.RunSpec{}
	_ TLBOnlyConfig    = sim.TLBOnlyConfig{}
	_ PolicyFactory    = sim.PolicyFactory(nil)
	_ NamedFactory     = sim.NamedFactory{}
	_ SuiteOptions     = sim.SuiteOptions{}
	_ SuiteResult      = sim.SuiteResult{}
	_ *StreamCache     = (*l2stream.Cache)(nil)
	_ ReuseSample      = sim.ReuseSample{}
	_ *MetricsRegistry = (*obs.Registry)(nil)
	_ MetricsSnapshot  = obs.Snapshot{}
	_ *Manifest        = (*obs.Manifest)(nil)
	_ *Adaline         = (*adaline.Adaline)(nil)
	_ AdalineConfig    = adaline.Config{}
	_ MPKIResult       = sim.TLBOnlyResult{}
)

func TestRunThroughFacade(t *testing.T) {
	w := WorkloadByName("db-000")
	if w == nil {
		t.Fatal("workload missing")
	}
	factories, err := Factories([]string{"lru", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewStreamCache(0)
	defer cache.Close()

	before := Metrics().Snapshot()
	for _, f := range factories {
		res, err := Run(context.Background(), RunSpec{
			Workload: w,
			Policy:   f.New,
			Config:   DefaultTLBOnlyConfig(150_000),
			Cache:    cache,
		})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if res.Instructions == 0 || res.L2Accesses == 0 {
			t.Fatalf("%s: empty result %+v", f.Name, res)
		}
	}
	// The run must have published TLB and predictor movement into the
	// default registry.
	delta := Metrics().Snapshot().Delta(before)
	for _, series := range []string{
		`chirp_tlb_lookups_total{level="L2 TLB"}`,
		"chirp_predictor_predictions_total",
	} {
		if delta[series] <= 0 {
			t.Errorf("no movement on %s after a run (delta %v)", series, delta)
		}
	}
}

func TestRunSuiteThroughFacade(t *testing.T) {
	factories, err := Factories([]string{"lru", "srrip"})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunSuite(context.Background(), SuiteN(2), factories,
		DefaultTLBOnlyConfig(150_000), SuiteOptions{Workers: 2, StreamCache: NewStreamCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("suite results = %d, want 4", len(rs))
	}
}

func TestServeMetricsAndManifestThroughFacade(t *testing.T) {
	bound, stop, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	m, err := OpenManifest(path, "facade test")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"chirp_manifest"`) {
		t.Fatalf("manifest missing header: %s", raw)
	}
}
