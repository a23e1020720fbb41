package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// hostInfo identifies where and on what a result was measured;
// compare refuses results from different hosts.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	// Commit is the measured tree's HEAD ("unknown" outside a git
	// checkout). Dirty reports uncommitted changes to anything that can
	// change the binary: everything but bench/, BENCHMARK.json,
	// .gitignore, the Markdown documents and the .bench_build/ outputs.
	Commit  string `json:"commit"`
	Dirty   bool   `json:"dirty"`
	Workers int    `json:"workers"`
}

func probeHost(root string, workers int) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), CPUModel: cpuModel(), GoVersion: runtime.Version(),
		Commit: "unknown", Workers: workers}
	// Only ask git about a checkout's own repository: outside one, git
	// would search the parent directories.
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return h
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	out, err := exec.Command("git", "-C", root, "status", "--porcelain", "--",
		".", ":(exclude)bench", ":(exclude)*.md", ":(exclude)BENCHMARK.json", ":(exclude).gitignore",
		":(exclude).bench_build").Output()
	h.Dirty = err != nil || len(strings.TrimSpace(string(out))) > 0
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resultFile is what `run` and `trace` write with -o. Each command
// fills its own section; writing to a file measured on the same host
// and commit keeps the other section, so one file can hold a full
// run + trace baseline.
type resultFile struct {
	Host  hostInfo     `json:"host"`
	Run   *runResult   `json:"run,omitempty"`
	Trace *traceResult `json:"trace,omitempty"`
}

type runResult struct {
	Seed      uint64        `json:"seed"`
	Reps      int           `json:"reps"`
	Workloads []runWorkload `json:"workloads"`
}

type runWorkload struct {
	Name      string             `json:"name"`
	Args      []string           `json:"args"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

// summary reports one metric over a workload's runs. Started holds each
// sample's start in Unix seconds; compare pairs two results' runs by it.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
	Started []float64 `json:"started,omitempty"`
}

func summarize(unit string, xs, started []float64) summary {
	s := summary{Unit: unit, N: len(xs), Samples: xs, Started: started, Median: median(xs)}
	if len(xs) > 0 {
		ys := sorted(xs)
		s.Min, s.Max = ys[0], ys[len(ys)-1]
	}
	return s
}

// failedFrac is failed_frac's one value: failed runs over attempted.
func failedFrac(failed, attempted int) summary {
	return summarize("ratio", []float64{float64(failed) / float64(attempted)}, nil)
}

// appendRuns adds r's runs to old's when both measured the same
// workloads at the same seed, and reports whether it could.
func appendRuns(old, r *runResult) (*runResult, bool) {
	if old.Seed != r.Seed || len(old.Workloads) != len(r.Workloads) {
		return nil, false
	}
	out := &runResult{Seed: old.Seed, Reps: old.Reps + r.Reps}
	for i, a := range old.Workloads {
		b := r.Workloads[i]
		if a.Name != b.Name || a.Digest != b.Digest {
			return nil, false
		}
		w := runWorkload{Name: a.Name, Args: a.Args, Digest: a.Digest,
			Attempted: a.Attempted + b.Attempted, Failed: a.Failed + b.Failed, Metrics: map[string]summary{}}
		for name, sa := range a.Metrics {
			sb := b.Metrics[name]
			w.Metrics[name] = summarize(sa.Unit, slices.Concat(sa.Samples, sb.Samples), slices.Concat(sa.Started, sb.Started))
		}
		w.Metrics["failed_frac"] = failedFrac(w.Failed, w.Attempted)
		out.Workloads = append(out.Workloads, w)
	}
	return out, true
}

type traceResult struct {
	Seed      uint64          `json:"seed"`
	Workloads []traceWorkload `json:"workloads"`
}

type traceWorkload struct {
	Name string `json:"name"`
	// JobTailQuantile is the percentile engine.job_tail_ms reports (1
	// = the maximum, when too few jobs leave ten beyond any percentile).
	JobTailQuantile float64           `json:"job_tail_quantile"`
	Metrics         map[string]metric `json:"metrics"`
}

// metric is one value with its unit, as measure prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult stores r at path. An existing file measured on the same
// host and commit keeps the other command's section, and its run
// section gains r's runs when they share the seed; that is how the two
// sides of an interleaved comparison accumulate their runs.
func writeResult(path string, r resultFile) error {
	if old, err := readResult(path); err == nil && old.Host == r.Host {
		if r.Run == nil {
			r.Run = old.Run
		} else if old.Run != nil {
			if merged, ok := appendRuns(old.Run, r.Run); ok {
				r.Run = merged
			}
		}
		if r.Trace == nil {
			r.Trace = old.Trace
		}
	} else if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var r resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
