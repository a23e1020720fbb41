// Command tracegen materialises suite workloads into binary trace
// files (the "CHTR" format internal/trace defines), so runs can be
// replayed or inspected without the generators.
//
//	tracegen -workload db-000 -instr 5000000 -o db-000.chtr
//	tracegen -all -n 16 -instr 1000000 -dir traces/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"github.com/chirplab/chirp/internal/cli"
	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

func main() { os.Exit(run(flag.CommandLine, os.Args[1:])) }

func run(fs *flag.FlagSet, args []string) int {
	workload := fs.String("workload", "", "suite workload to materialise")
	specFlags := cli.RegisterSpec(fs, "workload spec (registry name or JSON file); -workload then names one of its compiled workloads, -all materialises them all")
	out := fs.String("o", "", "output file (default <workload>.chtr)")
	all := fs.Bool("all", false, "materialise a suite prefix instead of one workload")
	n := fs.Int("n", 8, "suite prefix size with -all (0 = full suite)")
	dir := fs.String("dir", ".", "output directory with -all")
	instr := fs.Uint64("instr", 1_000_000, "instructions per trace")
	workers := fs.Int("workers", 0, "parallel trace writers with -all (0 = GOMAXPROCS)")
	checkpoint := fs.String("checkpoint", "", "JSONL checkpoint file with -all; already-written traces are skipped on resume")
	progress := fs.Duration("progress", 0, "print a progress line to stderr at this interval (0 = off)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *instr == 0 {
		return cli.Exit("tracegen", cli.Usagef("-instr must be positive: a zero budget simulates nothing"))
	}
	if *n < 0 {
		return cli.Exit("tracegen", cli.Usagef("-n must not be negative (0 = full suite)"))
	}

	compiled, err := specFlags.Compile()
	if err != nil {
		return cli.Exit("tracegen", err)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopProf, err := cli.StartProfiles(*cpuprofile, "")
	if err != nil {
		return cli.Exit("tracegen", err)
	}
	defer stopProf()

	write := func(w *workloads.Workload, path string) (traceSummary, error) {
		records, instructions, err := trace.WriteFile(path, trace.NewLimit(w.Source(), *instr))
		if err != nil {
			return traceSummary{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return traceSummary{}, err
		}
		return traceSummary{Path: path, Records: records, Instructions: instructions, Bytes: fi.Size()}, nil
	}

	switch {
	case *all:
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
		cfg := engine.Config{Workers: *workers}
		if *progress > 0 {
			cfg.Sink = engine.NewReporter(os.Stderr, *progress)
		}
		if *checkpoint != "" {
			// A checkpointed row stands in for the file it describes:
			// resume trusts that a recorded trace is already on disk and
			// skips regenerating it.
			meta := fmt.Sprintf("tracegen n=%d instr=%d dir=%s", *n, *instr, *dir)
			ck, err := engine.Open(*checkpoint, meta)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
				return 1
			}
			defer ck.Close()
			cfg.Checkpoint = ck
		}
		ws := cli.Suite(compiled, *n)
		jobs := make([]engine.Job[traceSummary], 0, len(ws))
		for _, w := range ws {
			w := w
			jobs = append(jobs, engine.Job[traceSummary]{
				Key: engine.Key{Workload: w.Name, Policy: "tracegen"},
				Run: func(context.Context) (traceSummary, error) {
					return write(w, filepath.Join(*dir, fileName(w.Name)))
				},
			})
		}
		results, err := engine.Run(ctx, jobs, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
		for _, s := range results {
			fmt.Printf("%s: %d records, %d instructions, %d bytes\n", s.Path, s.Records, s.Instructions, s.Bytes)
		}
	case *workload != "":
		var w *workloads.Workload
		if compiled != nil {
			w = compiled.ByName(*workload)
		} else {
			w = workloads.ByName(*workload)
		}
		if w == nil {
			fmt.Fprintf(os.Stderr, "tracegen: unknown workload %q\n", *workload)
			return 1
		}
		path := *out
		if path == "" {
			path = fileName(w.Name)
		}
		s, err := write(w, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
		fmt.Printf("%s: %d records, %d instructions, %d bytes\n", s.Path, s.Records, s.Instructions, s.Bytes)
	default:
		fmt.Fprintln(os.Stderr, "tracegen: -workload or -all is required")
		return 2
	}
	return 0
}

// fileName maps a workload name to its default trace file name;
// spec-compiled tenant views carry "/" in their names, which must not
// become directories.
func fileName(workload string) string {
	return strings.ReplaceAll(workload, "/", "_") + ".chtr"
}

// traceSummary records one materialised trace; exported fields so it
// survives a JSON checkpoint round-trip.
type traceSummary struct {
	Path         string
	Records      uint64
	Instructions uint64
	Bytes        int64
}
