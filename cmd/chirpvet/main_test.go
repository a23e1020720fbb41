package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/analysis"
)

// repoRoot walks up from the working directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// vet runs chirpvet with -C pointed at the repo root and returns its
// exit code and streams.
func vet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-C", repoRoot(t)}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestList pins the registry by name: -list must print exactly these
// rules, in reporting order, so a rule that drops out of
// analysis.Rules() fails here.
func TestList(t *testing.T) {
	want := []string{"hotpath-alloc", "obs-boundary", "determinism", "ctx-first", "no-deprecated",
		"lock-balance", "pair-lifetime", "goroutine-discipline"}
	if got := analysis.RuleNames(); !slices.Equal(got, want) {
		t.Errorf("analysis.RuleNames() = %v, want %v", got, want)
	}
	code, out, _ := vet(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed = append(listed, f[0])
		}
	}
	if !slices.Equal(listed, want) {
		t.Errorf("-list printed %v, want %v", listed, want)
	}
	if slices.Contains(listed, "atomic-mix") {
		t.Errorf("-list names the deleted atomic-mix rule:\n%s", out)
	}
}

func TestUnknownRuleExits2(t *testing.T) {
	code, _, stderr := vet(t, "-rules", "nope", "internal/policy")
	if code != 2 {
		t.Fatalf("unknown rule exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown rule") {
		t.Errorf("stderr missing unknown-rule error: %s", stderr)
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, out, stderr := vet(t, "internal/analysis")
	if code != 0 {
		t.Fatalf("clean package exited %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if out != "" {
		t.Errorf("clean package produced output: %s", out)
	}
}

func TestFixtureFindingsExitOne(t *testing.T) {
	code, out, stderr := vet(t, "-rules", "hotpath-alloc", "internal/analysis/testdata/src/hotpath")
	if code != 1 {
		t.Fatalf("violation fixture exited %d, want 1\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "[hotpath-alloc]") {
		t.Errorf("stdout missing hotpath-alloc diagnostics:\n%s", out)
	}
	// Paths render relative to the module root for stable output.
	if !strings.Contains(out, filepath.Join("internal", "analysis", "testdata", "src", "hotpath", "hotpath.go")) {
		t.Errorf("diagnostics are not module-relative:\n%s", out)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing finding count: %s", stderr)
	}
}

func TestSARIFOutput(t *testing.T) {
	code, out, _ := vet(t, "-sarif", "-rules", "lock-balance", "internal/analysis/testdata/src/lockbalance")
	if code != 1 {
		t.Fatalf("-sarif fixture run exited %d, want 1", code)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("-sarif output does not parse: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected log shape: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "chirpvet" || len(run.Tool.Driver.Rules) == 0 {
		t.Fatalf("malformed driver: %+v", run.Tool.Driver)
	}
	if len(run.Results) == 0 {
		t.Fatal("-sarif reported no results for the lockbalance fixture")
	}
	for _, res := range run.Results {
		if res.RuleID != "lock-balance" || res.Message.Text == "" || len(res.Locations) != 1 {
			t.Errorf("malformed result: %+v", res)
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if !strings.HasPrefix(loc.ArtifactLocation.URI, "internal/analysis/testdata/src/lockbalance/") {
			t.Errorf("URI not module-relative with forward slashes: %q", loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine == 0 {
			t.Errorf("result missing start line: %+v", res)
		}
		if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) ||
			run.Tool.Driver.Rules[res.RuleIndex].ID != res.RuleID {
			t.Errorf("ruleIndex %d does not point at %s in the driver rule table", res.RuleIndex, res.RuleID)
		}
	}
}
