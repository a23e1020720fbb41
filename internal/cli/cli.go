// Package cli owns the run resources of the simulator commands
// (chirpexp, chirpsim, chirpsweep): the flags that configure them and
// the one place that opens and closes them — the signal context, the
// CPU and heap profiles, the -metrics server, the manifest and
// progress sinks, the checkpoint and the process's one L2 event-stream
// cache. Every layer below a command takes what it is given, and the
// cache rule is RunSpec.Cache's everywhere: a nil cache (-l2cache < 0)
// means the direct RunTLBOnly reference path, a non-nil one means
// replay through that cache.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

// usageError marks an invalid command line; Exit maps it to status 2.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// Usagef returns a usage error: a command line that is invalid before
// anything runs.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// Exit prints err on stderr prefixed by the tool name and returns the
// process exit status: 2 for a usage error, 1 for any other failure.
func Exit(tool string, err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// SpecFlags are -workload-spec and -seed.
type SpecFlags struct {
	Name string
	Seed uint64
	fs   *flag.FlagSet
}

// RegisterSpec defines -workload-spec (with the tool's own usage text)
// and -seed on fs.
func RegisterSpec(fs *flag.FlagSet, usage string) *SpecFlags {
	s := &SpecFlags{fs: fs}
	fs.StringVar(&s.Name, "workload-spec", "", usage)
	fs.Uint64Var(&s.Seed, "seed", 0, "master seed for -workload-spec; overrides the spec document's seed")
	return s
}

// Compile resolves and compiles -workload-spec, returning nil without
// one. Master-seed supremacy needs set-detection, not just a value: an
// explicit -seed 0 still overrides the document's seed, and -seed
// without a spec is a usage error. Call it after fs is parsed.
func (s *SpecFlags) Compile() (*spec.Compiled, error) {
	seedSet := false
	s.fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	if s.Name == "" {
		if seedSet {
			return nil, Usagef("-seed requires -workload-spec (suite workload seeds are part of their identity)")
		}
		return nil, nil
	}
	sp, err := spec.Resolve(s.Name)
	if err != nil {
		return nil, usageError{err}
	}
	c, err := spec.Compile(sp, spec.Options{Seed: s.Seed, SeedSet: seedSet})
	if err != nil {
		return nil, usageError{err}
	}
	return c, nil
}

// Suite returns the first n workloads of c's compiled population, or
// of the built-in suite when c is nil (n <= 0 keeps them all).
func Suite(c *spec.Compiled, n int) []*workloads.Workload {
	if c == nil {
		if n <= 0 {
			n = workloads.SuiteSize
		}
		return workloads.SuiteN(n)
	}
	ws := c.Workloads()
	if n > 0 && n < len(ws) {
		ws = ws[:n]
	}
	return ws
}

// Flags are the run-resource flags the simulator commands share.
type Flags struct {
	Workers       int
	L2Cache       int64
	CaptureDir    string
	CaptureDirMax int64
	Checkpoint    string
	Metrics       string
	Manifest      string
	Progress      time.Duration
	CPUProfile    string
	MemProfile    string
}

// Register defines the run-resource flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	fs.Int64Var(&f.L2Cache, "l2cache", 0, "L2 event-stream cache budget in MiB, shared by every run of the process: each workload's trace is generated and L1-filtered once and replayed per policy (0 = 256 MiB default, negative = direct reference path, no capture/replay)")
	fs.StringVar(&f.CaptureDir, "capturedir", "", "persistent capture directory: captured L2 event streams are stored here (content-addressed) and reused by later runs in any process sharing the directory")
	fs.Int64Var(&f.CaptureDirMax, "capturedir-max-bytes", 0, "byte budget for -capturedir: least-recently-used captures (and their derived sidecars) are evicted to stay under it (0 = unbounded)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "JSONL checkpoint file: completed runs are restored from it and new ones appended, so a killed run resumes where it stopped")
	fs.StringVar(&f.Metrics, "metrics", "", "serve /metrics (Prometheus), /debug/vars (JSON) and /debug/pprof on this address (e.g. localhost:8080)")
	fs.StringVar(&f.Manifest, "manifest", "", "append a JSONL run manifest (run identity + per-job metric deltas) to this file")
	fs.DurationVar(&f.Progress, "progress", 0, "print a progress line to stderr at this interval (e.g. 10s; 0 = off)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// validate rejects flag values that would otherwise be ignored or
// wrap around.
func (f *Flags) validate() error {
	if f.L2Cache > math.MaxInt64>>20 {
		return Usagef("-l2cache %d MiB overflows a byte count (max %d)", f.L2Cache, int64(math.MaxInt64>>20))
	}
	if f.L2Cache < 0 && (f.CaptureDir != "" || f.CaptureDirMax != 0) {
		return Usagef("-capturedir and -capturedir-max-bytes need capture/replay; a negative -l2cache selects the direct reference path")
	}
	if f.CaptureDirMax != 0 && f.CaptureDir == "" {
		return Usagef("-capturedir-max-bytes requires -capturedir")
	}
	return nil
}

// Runtime is the set of run resources one command opened.
type Runtime struct {
	// Ctx is cancelled by Ctrl-C / SIGTERM: the engine stops
	// dispatching new simulations, drains the in-flight ones and leaves
	// the checkpoint resumable.
	Ctx context.Context
	// Streams is the process's one L2 event-stream cache, nil when
	// -l2cache is negative (the direct reference path).
	Streams    *l2stream.Cache
	Checkpoint *engine.Checkpoint
	Sink       engine.Sink
	Workers    int

	tool    string
	closers []func() error
}

// Open validates f and opens its resources for tool. meta is the
// run's fingerprint: it guards the checkpoint and names the manifest
// run, so resumed rows are exchangeable with fresh ones. On error
// everything already opened is closed again; on success the caller
// must Close the runtime.
func (f *Flags) Open(tool, meta string) (*Runtime, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	r := &Runtime{tool: tool, Workers: f.Workers}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	r.Ctx = ctx
	r.onClose(func() error { stop(); return nil })
	if err := r.open(f, meta); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func (r *Runtime) open(f *Flags, meta string) error {
	stopProf, err := StartProfiles(f.CPUProfile, f.MemProfile)
	if err != nil {
		return err
	}
	r.onClose(stopProf)
	if f.Metrics != "" {
		bound, stopMetrics, err := obs.Serve(f.Metrics, obs.Default)
		if err != nil {
			return err
		}
		r.onClose(stopMetrics)
		fmt.Fprintf(os.Stderr, "%s: metrics on http://%s/metrics\n", r.tool, bound)
	}
	var sinks []engine.Sink
	if f.Manifest != "" {
		man, err := obs.OpenManifest(f.Manifest, obs.Default, meta)
		if err != nil {
			return err
		}
		r.onClose(man.Close)
		sinks = append(sinks, engine.ManifestSink(man))
	}
	if f.L2Cache >= 0 {
		// With -capturedir the captures also persist on disk, so a
		// re-run (or another process) skips the capture passes.
		if f.CaptureDir != "" {
			r.Streams, err = l2stream.NewPersistent(f.L2Cache<<20, f.CaptureDir)
			if err != nil {
				return err
			}
			r.Streams.SetStoreMaxBytes(f.CaptureDirMax)
		} else {
			r.Streams = l2stream.NewCache(f.L2Cache << 20)
		}
		r.onClose(func() error { r.Streams.Close(); return nil })
	}
	if f.Progress > 0 {
		sinks = append(sinks, engine.NewReporter(os.Stderr, f.Progress))
	}
	if len(sinks) > 0 {
		r.Sink = engine.MultiSink(sinks...)
	}
	if f.Checkpoint != "" {
		ck, err := engine.Open(f.Checkpoint, meta)
		if err != nil {
			return err
		}
		r.Checkpoint = ck
		r.onClose(ck.Close)
	}
	return nil
}

func (r *Runtime) onClose(f func() error) { r.closers = append(r.closers, f) }

// Close releases the resources in reverse order of opening, printing
// (not returning) any teardown error: a finished run's results stand.
func (r *Runtime) Close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		if err := r.closers[i](); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.tool, err)
		}
	}
	r.closers = nil
}
