package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
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
