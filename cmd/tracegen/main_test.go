package main

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"testing"
)

// TestFlagSet pins tracegen's flag names and defaults, so a change to
// the shared run-resource flags cannot add, drop, rename or re-default
// an option of this command unnoticed.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if code := run(fs, []string{"-h"}); code != 2 {
		t.Fatalf("-h returned %d, want 2 (usage)", code)
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"all":           "false",
		"checkpoint":    "",
		"cpuprofile":    "",
		"dir":           ".",
		"instr":         "1000000",
		"n":             "8",
		"o":             "",
		"progress":      "0s",
		"seed":          "0",
		"workers":       "0",
		"workload":      "",
		"workload-spec": "",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestNegativeNIsUsageError: -n selects a suite prefix and 0 keeps the
// whole suite, so a negative -n is a usage error (exit 2), not a panic.
func TestNegativeNIsUsageError(t *testing.T) {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if code := run(fs, []string{"-all", "-n", "-1", "-instr", "1000", "-dir", t.TempDir()}); code != 2 {
		t.Errorf("-all -n -1 returned %d, want 2 (usage)", code)
	}
}

// TestZeroInstrIsUsageError: tracegen bounds every workload at -instr
// instructions, so -instr 0 would write empty traces; it is a usage
// error (exit 2) for one workload and for a suite prefix.
func TestZeroInstrIsUsageError(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"workload": {"-workload", "db-000", "-o", filepath.Join(dir, "db-000.chtr")},
		"all":      {"-all", "-n", "1", "-dir", dir},
	} {
		t.Run(name, func(t *testing.T) {
			fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if code := run(fs, append(args, "-instr", "0")); code != 2 {
				t.Errorf("%v -instr 0 returned %d, want 2 (usage)", args, code)
			}
		})
	}
}
