// Command minilint runs the repo's determinism and hygiene lint suite
// (internal/lint) over package patterns and exits nonzero on findings.
//
// Usage:
//
//	minilint [-list] [-trace] [pattern ...]
//
// Patterns are directories, with "dir/..." walking recursively (testdata
// and vendor trees are skipped, like the go tool). With no patterns it
// checks ./internal/..., ./cmd/... and ./examples/... — the CI gate:
//
//	go run ./cmd/minilint ./internal/... ./cmd/... ./examples/...
//
// Exit codes: 0 clean, 1 findings, 2 a package that does not load or
// type-check.
//
// -list prints the five rules. -trace prints the call chain behind each
// finding that has one (dettaint, lockorder, commiterr), one frame per
// indented line, under the diagnostic.
//
// Findings print as "file:line: [rule] message". A finding is either a
// bug to fix or, rarely, an intentional exception to suppress with
// "//lint:ignore RULE reason" on or directly above the flagged line;
// stale suppressions are themselves reported as unused-ignore.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("minilint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	trace := fs.Bool("trace", false, "print the call chain under each interprocedural finding")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./cmd/...", "./examples/..."}
	}
	dirs, err := lint.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "minilint:", err)
		return 2
	}
	modRoot, err := lint.FindModRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "minilint:", err)
		return 2
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(stderr, "minilint:", err)
		return 2
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintln(stderr, "minilint:", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	diags := lint.Run(pkgs, lint.Analyzers())
	cwd, _ := os.Getwd()
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && len(rel) < len(name) {
			name = rel
		}
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", name, d.Pos.Line, d.Rule, d.Message)
		if *trace && len(d.Trace) > 0 {
			for i, frame := range d.Trace {
				fmt.Fprintf(stdout, "\t%s%s\n", strings.Repeat("  ", i), frame)
			}
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "minilint: %d findings in %d packages\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
