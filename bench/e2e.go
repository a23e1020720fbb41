package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// minFreeBytes is the free disk the benchmark needs before it starts.
// The largest run keeps a populated store and one fresh store of a few
// hundred MiB each; the rest is headroom for a slower cleanup.
const minFreeBytes = 2 << 30

// firstTimeout bounds an invocation with no earlier run to scale from.
const firstTimeout = 150 * time.Second

// harness holds what every measurement needs: the repository under
// test, the chirpexp binary built from it, and one work directory
// under .bench_build that holds every capture store and is removed
// when the benchmark ends.
type harness struct {
	root    string
	bin     string
	work    string
	workers int
	env     []string
	log     io.Writer
	nextDir int
}

// newHarness checks the disk, creates the work directory and builds
// chirpexp from the tree under test.
func newHarness(ctx context.Context, root string, log io.Writer) (*harness, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "chirpexp")); err != nil {
		return nil, fmt.Errorf("%s is not the chirp repository root: %w", root, err)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(build, &st); err != nil {
		return nil, fmt.Errorf("checking free disk: %w", err)
	}
	if free := st.Bavail * uint64(st.Bsize); free < minFreeBytes {
		return nil, fmt.Errorf("only %d MiB free under %s; the benchmark needs %d MiB", free>>20, build, minFreeBytes>>20)
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return nil, err
	}
	h := &harness{
		root:    root,
		bin:     filepath.Join(build, "chirpexp"),
		work:    work,
		workers: min(runtime.NumCPU(), 4),
		log:     log,
	}
	tmp := filepath.Join(work, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		h.close()
		return nil, err
	}
	// Children spill and stage under the work directory, never the
	// system temp directory.
	h.env = append(os.Environ(), "TMPDIR="+tmp)
	cmd := exec.CommandContext(ctx, "go", "build", "-o", h.bin, "./cmd/chirpexp")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		h.close()
		return nil, fmt.Errorf("building chirpexp: %v\n%s", err, out)
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.work) }

// freshDir returns a new, not yet created, capture-directory path.
func (h *harness) freshDir() string {
	h.nextDir++
	return filepath.Join(h.work, "store-"+strconv.Itoa(h.nextDir))
}

// invocation is one finished chirpexp child process.
type invocation struct {
	Wall   time.Duration
	CPU    time.Duration // user + system, from the child's rusage
	RSSKiB int64         // the child's peak resident set
	Stdout []byte
}

// invoke runs chirpexp once and waits for it; a run still going after
// timeout is killed and reported as failed.
func (h *harness) invoke(ctx context.Context, args []string, timeout time.Duration) (invocation, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.bin, args...)
	cmd.Dir = h.root
	cmd.Env = h.env
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return invocation{}, fmt.Errorf("chirpexp timed out after %v", timeout.Round(time.Millisecond))
	}
	if err != nil {
		return invocation{}, fmt.Errorf("chirpexp: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	inv := invocation{Wall: wall, Stdout: stdout.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		inv.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		inv.RSSKiB = ru.Maxrss
	}
	return inv, nil
}

// session is one workload at one seed: its set-up outputs and the
// reference stdout every later run must reproduce.
type session struct {
	h      *harness
	w      workload
	seed   uint64
	pop    []*workloads.Workload
	warm   string // populated capture directory (storeWarm)
	ref    []byte // the set-up's stdout
	digest string
	setup  []float64 // seconds per set-up invocation
	setupT []float64 // each set-up invocation's start, in Unix seconds
	walls  []float64 // seconds per successful measured invocation
}

// newSession runs the workload's set-up invocations. They must all
// succeed and agree on their output, which becomes the reference.
func (h *harness) newSession(ctx context.Context, w workload, seed uint64) (*session, error) {
	pop, err := w.population(h.root, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	s := &session{h: h, w: w, seed: seed, pop: pop}
	for i := 0; i < setups; i++ {
		dir := ""
		start := time.Now()
		if w.Store != storeNone {
			dir = h.freshDir()
			if err := os.Mkdir(dir, 0o755); err != nil {
				return nil, err
			}
		}
		inv, err := h.invoke(ctx, w.args(seed, h.workers, dir), timeoutFor(s.setup))
		s.setup = append(s.setup, time.Since(start).Seconds())
		s.setupT = append(s.setupT, unixSeconds(start))
		keep := w.Store == storeWarm && i == setups-1
		if dir != "" && (!keep || err != nil) {
			os.RemoveAll(dir)
		}
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		d := digest(inv.Stdout)
		if s.ref != nil && d != s.digest {
			return nil, fmt.Errorf("%s set-up: invocations disagree (%.12s vs %.12s)", w.Name, d, s.digest)
		}
		s.ref, s.digest = inv.Stdout, d
		if keep {
			s.warm = dir
		}
	}
	fmt.Fprintf(h.log, "%s: set up in %.2fs (median of %d), digest %.12s\n", w.Name, median(s.setup), len(s.setup), s.digest)
	return s, nil
}

// close removes the session's populated store.
func (s *session) close() {
	if s.warm != "" {
		os.RemoveAll(s.warm)
	}
}

// timeoutFor allows a run three times the median of the earlier ones.
func timeoutFor(prev []float64) time.Duration {
	if len(prev) == 0 {
		return firstTimeout
	}
	return time.Duration(3 * median(prev) * float64(time.Second))
}

// sample is one measured invocation's end-to-end values and its start
// in Unix seconds.
type sample struct {
	Wall, CPU, RSSMiB, StoreMiB float64
	Started                     float64
}

func unixSeconds(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// errMismatch marks a run whose output differs from the reference: a
// failed run, and a wrong answer.
var errMismatch = errors.New("output differs from the set-up's")

// rep runs one measured invocation.
func (s *session) rep(ctx context.Context) (sample, error) {
	dir := s.warm
	if s.w.Store == storeFresh {
		dir = s.h.freshDir()
		if err := os.Mkdir(dir, 0o755); err != nil {
			return sample{}, err
		}
		defer os.RemoveAll(dir)
	}
	prev := s.walls
	if len(prev) == 0 {
		prev = s.setup
	}
	start := time.Now()
	inv, err := s.h.invoke(ctx, s.w.args(s.seed, s.h.workers, dir), timeoutFor(prev))
	if err != nil {
		return sample{}, err
	}
	if d := digest(inv.Stdout); d != s.digest {
		return sample{}, fmt.Errorf("%w (digest %.12s, want %.12s)", errMismatch, d, s.digest)
	}
	smp := sample{Wall: inv.Wall.Seconds(), CPU: inv.CPU.Seconds(), RSSMiB: float64(inv.RSSKiB) / 1024,
		Started: unixSeconds(start)}
	if dir != "" {
		byExt, err := storeBytes(dir)
		if err != nil {
			return sample{}, err
		}
		for _, n := range byExt {
			smp.StoreMiB += float64(n) / (1 << 20)
		}
	}
	s.walls = append(s.walls, smp.Wall)
	return smp, nil
}

// minstr is the simulated work of one invocation in millions of
// instructions: every (workload, policy, pass) cell runs Instr.
func (s *session) minstr() float64 {
	return float64(s.w.cells(len(s.pop))) * float64(s.w.Instr) / 1e6
}

// oracle re-runs the first w.Oracle workloads of the population on the
// direct reference path — no capture, no replay, no derived views —
// and compares every policy with the per-workload CSV chirpexp printed.
func (s *session) oracle(ctx context.Context) error {
	if s.w.Oracle == 0 {
		return nil
	}
	var results []passResult
	for _, p := range s.w.passes() {
		if p.Exp != "fig7" && p.Exp != "fig8" {
			continue
		}
		r := passResult{Pass: p}
		for _, w := range s.pop[:s.w.Oracle] {
			row := make([]float64, len(p.Policies))
			for j, f := range p.Policies {
				v, err := directRun(ctx, w, f, p, s.w.Instr)
				if err != nil {
					return fmt.Errorf("%s oracle %s/%s: %w", s.w.Name, w.Name, f.Name, err)
				}
				row[j] = v
			}
			r.Vals = append(r.Vals, row)
		}
		results = append(results, r)
	}
	if err := crossCheck(s.ref, s.pop[:s.w.Oracle], results); err != nil {
		return fmt.Errorf("%s: direct reference path disagrees: %w", s.w.Name, err)
	}
	return nil
}

// directRun measures one cell without the capture/replay machinery:
// MPKI from sim.Run with no cache, or IPC from the timing pipeline.
func directRun(ctx context.Context, w *workloads.Workload, f sim.NamedFactory, p pass, instr uint64) (float64, error) {
	if p.Timing {
		m, err := pipeline.New(pipeline.DefaultConfig(instr, walkPenalty), f.New(), lruL1)
		if err != nil {
			return 0, err
		}
		res, err := m.Run(trace.NewLimit(w.Source(), instr))
		return res.IPC, err
	}
	cfg := sim.DefaultTLBOnlyConfig(instr)
	cfg.PrefetchDistance = p.Prefetch
	res, err := sim.Run(ctx, sim.RunSpec{Workload: w, Policy: f.New, Config: cfg})
	return res.MPKI, err
}

// lruL1 is the L1 TLB policy of every timing run, as in the suite
// runner.
func lruL1() tlb.Policy { return policy.NewLRU() }

// storeBytes sums the sizes of the regular files under a capture
// directory by extension: "l2s" streams, "l2d" derived-view sidecars,
// "chtr" spilled traces, and whatever else the store holds.
func storeBytes(dir string) (map[string]int64, error) {
	byExt := map[string]int64{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		byExt[strings.TrimPrefix(filepath.Ext(path), ".")] += info.Size()
		return nil
	})
	return byExt, err
}
