package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
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

// TestNegativeNIsUsageError: -n selects a suite prefix and 0 keeps the
// whole suite, so a negative -n is a usage error (exit 2), not a run
// over every workload.
func TestNegativeNIsUsageError(t *testing.T) {
	fs := flag.NewFlagSet("chirpexp", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if code := run(fs, []string{"-exp", "fig7", "-n", "-1", "-instr", "1000"}); code != 2 {
		t.Errorf("-n -1 returned %d, want 2 (usage)", code)
	}
}

// TestZeroInstrIsUsageError: every route bounds its workloads at -instr
// instructions, so -instr 0 would simulate nothing; it is a usage error
// (exit 2) on the MPKI, timing and consolidated routes alike.
func TestZeroInstrIsUsageError(t *testing.T) {
	for _, exp := range []string{"fig7", "fig8", "consolidated"} {
		t.Run(exp, func(t *testing.T) {
			fs := flag.NewFlagSet("chirpexp", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if code := run(fs, []string{"-exp", exp, "-n", "1", "-instr", "0"}); code != 2 {
				t.Errorf("-exp %s -instr 0 returned %d, want 2 (usage)", exp, code)
			}
		})
	}
}

// TestStdoutDeterministic: the wall-clock "-- id done in T --" footer
// goes to stderr, so two identical runs print byte-identical stdout.
func TestStdoutDeterministic(t *testing.T) {
	runOnce := func() (stdout, stderr []byte) {
		dir := t.TempDir()
		outFile, err := os.Create(filepath.Join(dir, "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		errFile, err := os.Create(filepath.Join(dir, "stderr"))
		if err != nil {
			t.Fatal(err)
		}
		saved, savedErr := os.Stdout, os.Stderr
		os.Stdout, os.Stderr = outFile, errFile
		fs := flag.NewFlagSet("chirpexp", flag.ContinueOnError)
		code := run(fs, []string{"-exp", "table1,fig7", "-n", "2", "-instr", "100000"})
		os.Stdout, os.Stderr = saved, savedErr
		outFile.Close()
		errFile.Close()
		if code != 0 {
			t.Fatalf("run returned %d", code)
		}
		stdout, err = os.ReadFile(outFile.Name())
		if err != nil {
			t.Fatal(err)
		}
		stderr, err = os.ReadFile(errFile.Name())
		if err != nil {
			t.Fatal(err)
		}
		return stdout, stderr
	}
	first, stderr := runOnce()
	second, _ := runOnce()
	if !bytes.Contains(first, []byte("== fig7:")) {
		t.Fatalf("stdout lacks fig7's section:\n%s", first)
	}
	if bytes.Contains(first, []byte("done in")) {
		t.Errorf("stdout carries a wall-clock footer:\n%s", first)
	}
	for _, id := range []string{"table1", "fig7"} {
		if !bytes.Contains(stderr, []byte("-- "+id+" done in ")) {
			t.Errorf("stderr lacks %s's footer:\n%s", id, stderr)
		}
	}
	if !bytes.Equal(first, second) {
		t.Errorf("two runs printed different stdout:\n%s\n--- and ---\n%s", first, second)
	}
}
