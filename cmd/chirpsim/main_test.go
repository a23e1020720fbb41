package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// TestFlagSet pins chirpsim's flag names and defaults, so a change to
// the shared run-resource flags cannot add, drop, rename or re-default
// an option of this command unnoticed.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("chirpsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if code := run(fs, []string{"-h"}); code != 2 {
		t.Fatalf("-h returned %d, want 2 (usage)", code)
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"capturedir":           "",
		"capturedir-max-bytes": "0",
		"checkpoint":           "",
		"cpuprofile":           "",
		"describe":             "false",
		"instr":                "2000000",
		"l2cache":              "0",
		"list":                 "false",
		"manifest":             "",
		"memprofile":           "",
		"metrics":              "",
		"penalty":              "150",
		"policies":             "lru,random,srrip,ship,ghrp,chirp",
		"progress":             "0s",
		"seed":                 "0",
		"timing":               "false",
		"trace":                "",
		"workers":              "0",
		"workload":             "",
		"workload-spec":        "",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestTraceFlagConflicts: -trace names the run's whole subject, so
// combining it with another subject flag is a usage error (exit 2)
// rather than one of the two being silently ignored.
func TestTraceFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "db-003", "-trace", "db-003.chtr", "-instr", "20000"},
		{"-workload-spec", "default", "-trace", "db-003.chtr", "-instr", "20000"},
	} {
		t.Run(args[0], func(t *testing.T) {
			fs := flag.NewFlagSet("chirpsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if code := run(fs, args); code != 2 {
				t.Errorf("%v returned %d, want 2 (usage)", args, code)
			}
		})
	}
}

// TestUnreadableTraceFileExitsOne: a -trace file that does not open as
// a trace fails before any run is set up, with exit 1 (a run error, not
// a usage error).
func TestUnreadableTraceFileExitsOne(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.chtr")
	if err := os.WriteFile(garbage, []byte("not a trace file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.chtr"), garbage} {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".chtr"), func(t *testing.T) {
			fs := flag.NewFlagSet("chirpsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if code := run(fs, []string{"-trace", path, "-instr", "20000"}); code != 1 {
				t.Errorf("-trace %s returned %d, want 1", filepath.Base(path), code)
			}
		})
	}
}

// TestZeroInstrIsUsageError: chirpsim bounds its subject at -instr
// instructions, so -instr 0 would simulate nothing; it is a usage error
// (exit 2) for a suite workload, in timing mode and for a trace file.
func TestZeroInstrIsUsageError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db-000.chtr")
	if _, _, err := trace.WriteFile(path, trace.NewLimit(workloads.ByName("db-000").Source(), 20_000)); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"tlb-only": {"-workload", "db-000"},
		"timing":   {"-workload", "db-000", "-timing"},
		"trace":    {"-trace", path},
	} {
		t.Run(name, func(t *testing.T) {
			fs := flag.NewFlagSet("chirpsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if code := run(fs, append(args, "-instr", "0")); code != 2 {
				t.Errorf("%v -instr 0 returned %d, want 2 (usage)", args, code)
			}
		})
	}
}
