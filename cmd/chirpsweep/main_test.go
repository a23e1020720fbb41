package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// TestFlagSet pins chirpsweep's flag names and defaults, so a change to
// the shared run-resource flags cannot add, drop, rename or re-default
// an option of this command unnoticed.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("chirpsweep", flag.ContinueOnError)
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
		"instr":                "1000000",
		"l2cache":              "0",
		"manifest":             "",
		"memprofile":           "",
		"metrics":              "",
		"n":                    "96",
		"progress":             "0s",
		"seed":                 "0",
		"sweep":                "table",
		"workers":              "0",
		"workload-spec":        "",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestNegativeNIsUsageError: -n selects a suite prefix and 0 keeps the
// whole suite, so a negative -n is a usage error (exit 2), not a panic.
func TestNegativeNIsUsageError(t *testing.T) {
	fs := flag.NewFlagSet("chirpsweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if code := run(fs, []string{"-sweep", "ways", "-n", "-1", "-instr", "1000"}); code != 2 {
		t.Errorf("-n -1 returned %d, want 2 (usage)", code)
	}
}

// TestZeroInstrIsUsageError: every sweep bounds its workloads at -instr
// instructions, so -instr 0 would simulate nothing; it is a usage error
// (exit 2) for a geometry sweep and a policy sweep alike.
func TestZeroInstrIsUsageError(t *testing.T) {
	for _, sweep := range []string{"ways", "table"} {
		t.Run(sweep, func(t *testing.T) {
			fs := flag.NewFlagSet("chirpsweep", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if code := run(fs, []string{"-sweep", sweep, "-n", "2", "-instr", "0"}); code != 2 {
				t.Errorf("-sweep %s -instr 0 returned %d, want 2 (usage)", sweep, code)
			}
		})
	}
}
