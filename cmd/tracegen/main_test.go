package main

import (
	"flag"
	"io"
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
