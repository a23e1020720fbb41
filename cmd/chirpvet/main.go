// Command chirpvet runs the repository's custom static analysis suite
// (internal/analysis): stdlib-only go/ast + go/types rules that
// mechanically enforce the hot-path allocation budget, the
// obs-at-run-boundaries contract, workload bit-determinism, the
// context-first API shape, the deprecation ban list, and (through CFG
// dataflow) lock balance, pooled-array lifetimes and WaitGroup
// discipline.
//
// Usage:
//
//	chirpvet [-rules r1,r2] [-sarif] [-list] [packages ...]
//
// With no arguments (or "./...") it analyzes every non-test package in
// the module containing the working directory. Explicit directory
// arguments analyze just those packages — handy for pointing it at a
// testdata fixture.
//
// -sarif emits a SARIF 2.1.0 log on stdout (one run, one result per
// diagnostic) for code-scanning uploads and CI artifacts; the exit
// code still reflects the findings, so a pipeline can archive the
// report and gate on the same invocation.
//
// Exit codes: 0 clean, 1 diagnostics reported, 2 usage or load error.
// There is no -fix: every finding is either a bug to fix or a
// //chirp:allow to justify in review.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/chirplab/chirp/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chirpvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesFlag := fs.String("rules", "", "comma-separated rule subset to run (default: all)")
	sarifFlag := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log instead of file:line:col lines")
	listFlag := fs.Bool("list", false, "list the registered rules and exit")
	dirFlag := fs.String("C", "", "module root to analyze (default: locate go.mod above the working directory)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: chirpvet [-rules r1,r2] [-sarif] [-list] [packages ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rules, err := analysis.SelectRules(*rulesFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *listFlag {
		for _, r := range rules {
			fmt.Fprintf(stdout, "%-15s %s\n", r.Name(), r.Doc())
		}
		return 0
	}

	root := *dirFlag
	if root == "" {
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var mod *analysis.Module
	targets := fs.Args()
	if whole := len(targets) == 0 || (len(targets) == 1 && targets[0] == "./..."); whole {
		mod, err = loader.LoadModule()
	} else {
		dirs := make([]string, 0, len(targets))
		for _, t := range targets {
			dirs = append(dirs, strings.TrimSuffix(t, "/..."))
		}
		mod, err = loader.LoadDirs(dirs...)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	diags := analysis.Run(mod, rules)
	if *sarifFlag {
		if err := writeSARIF(stdout, root, rules, diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = relTo(root, d.Pos.Filename)
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "chirpvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("chirpvet: no go.mod above %s (use -C)", dir)
		}
		dir = parent
	}
}

// relTo renders a file path relative to the module root when possible,
// for stable, copy-pasteable diagnostics.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
