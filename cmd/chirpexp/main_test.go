package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// TestFlagSet pins chirpexp's flag names and defaults, so a change to
// the shared run-resource flags cannot add, drop, rename or re-default
// an option of this command unnoticed.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("chirpexp", flag.ContinueOnError)
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
		"exp":                  "fig7",
		"instr":                "2000000",
		"l2cache":              "0",
		"manifest":             "",
		"memprofile":           "",
		"metrics":              "",
		"n":                    "0",
		"penalty":              "150",
		"progress":             "0s",
		"seed":                 "0",
		"workers":              "0",
		"workload-spec":        "",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}
