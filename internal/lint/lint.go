// Package lint is a small, stdlib-only static-analysis framework with
// analyzers enforcing the repo's determinism and hygiene invariants:
// no wall-clock time or global randomness in sim-facing packages, no
// order-dependent iteration over maps, no printing or exiting from
// library code, and no self-deadlocking lock usage. Every subsystem's
// testability (golden traces, seed sweeps, fault-injection replays)
// rests on bit-for-bit reproducibility; these rules make that a
// machine-checked property of the build instead of a convention.
//
// The framework loads packages with go/parser and type-checks them with
// go/types (see load.go), runs each Analyzer over each package, applies
// "//lint:ignore RULE reason" suppression directives, and reports stale
// directives as unused-ignore findings. cmd/minilint is the CLI driver.
//
// On top of the per-package analyzers sits a whole-program layer: a
// module-aware static call graph (callgraph.go) shared by the
// interprocedural analyzers — dettaint (transitive determinism taint
// with per-edge traces), lockorder (cross-function lock-order cycles)
// and commiterr (dropped errors on durability-critical commit paths).
// These see through helper functions the single-function rules cannot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Diagnostic is one finding, rendered as "file:line: [rule] message".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	// Trace, set by interprocedural analyzers, is the call chain behind
	// the finding, outermost caller first (e.g. ["a", "b", "time.Now"]).
	// The driver prints it under the diagnostic when run with -trace.
	Trace []string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// An Analyzer checks one property over one package at a time.
type Analyzer struct {
	// Name is the rule name used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description for -help output and docs.
	Doc string
	// Skip, when set, exempts whole packages (e.g. cmd/ binaries may use
	// wall-clock time). Test files are never analyzed; see load.go.
	Skip func(pkg *Package) bool
	// Run reports findings through pass.Report. Per-package analyzers
	// set Run; whole-program analyzers set RunProgram instead.
	Run func(pass *Pass)
	// RunProgram, when set, runs once over all loaded packages with the
	// shared call graph. Exactly one of Run and RunProgram is set.
	RunProgram func(pass *ProgramPass)
}

// A Pass is one (analyzer, package) execution.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A ProgramPass is one whole-program analyzer execution: every loaded
// package plus the shared call graph.
type ProgramPass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *CallGraph
	Fset     *token.FileSet
	diags    []Diagnostic
}

// Report records a finding at pos with an optional call-chain trace
// (outermost caller first; nil for trace-less findings).
func (p *ProgramPass) Report(pos token.Pos, trace []string, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
		Trace:   trace,
	})
}

// Analyzers returns the full suite in stable order: the five
// per-package analyzers first, then the three interprocedural ones that
// need the whole-program call graph.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Wallclock,
		Globalrand,
		Maporder,
		Libhygiene,
		Lockguard,
		Dettaint,
		Lockorder,
		Commiterr,
	}
}

// RuleUnusedIgnore is the pseudo-rule under which stale or malformed
// //lint:ignore directives are reported. A suppression that matches
// nothing is itself a defect: it hides future regressions.
const RuleUnusedIgnore = "unused-ignore"

// ignoreDirective is one parsed "//lint:ignore RULE reason" comment. A
// directive suppresses diagnostics of the named rule on its own line
// (trailing comment) or on the line directly below (own-line comment).
type ignoreDirective struct {
	pos       token.Position
	rule      string
	reason    string
	malformed bool
	used      bool
}

const ignorePrefix = "//lint:ignore"

func parseIgnores(fset *token.FileSet, files []*ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				d := &ignoreDirective{pos: fset.Position(c.Pos())}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				rule, reason, _ := strings.Cut(rest, " ")
				d.rule = rule
				d.reason = strings.TrimSpace(reason)
				if d.rule == "" || d.reason == "" {
					d.malformed = true
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// matches reports whether the directive suppresses a diagnostic at pos.
func (d *ignoreDirective) matches(diag Diagnostic) bool {
	if d.malformed || d.rule != diag.Rule || d.pos.Filename != diag.Pos.Filename {
		return false
	}
	return diag.Pos.Line == d.pos.Line || diag.Pos.Line == d.pos.Line+1
}

// Run executes every analyzer over every package (per-package analyzers
// per package, whole-program analyzers once over the shared call graph),
// applies suppression directives, reports stale ones, and returns the
// findings sorted by position then rule. The call graph is built only
// when an interprocedural analyzer is selected.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	var programAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			programAnalyzers = append(programAnalyzers, a)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil || (a.Skip != nil && a.Skip(pkg)) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			raw = append(raw, pass.diags...)
		}
	}
	if len(programAnalyzers) > 0 && len(pkgs) > 0 {
		graph := BuildCallGraph(pkgs)
		for _, a := range programAnalyzers {
			pass := &ProgramPass{Analyzer: a, Pkgs: pkgs, Graph: graph, Fset: pkgs[0].Fset}
			a.RunProgram(pass)
			raw = append(raw, pass.diags...)
		}
	}
	// Suppression directives match diagnostics by filename and line, so
	// they are gathered from every package and applied globally —
	// interprocedural findings land in whichever package the position
	// falls in, not necessarily the package that triggered the analyzer.
	var all []Diagnostic
	var ignores []*ignoreDirective
	for _, pkg := range pkgs {
		ignores = append(ignores, parseIgnores(pkg.Fset, pkg.Files)...)
	}
	for _, diag := range raw {
		suppressed := false
		for _, ig := range ignores {
			if ig.matches(diag) {
				ig.used = true
				suppressed = true
			}
		}
		if !suppressed {
			all = append(all, diag)
		}
	}
	for _, ig := range ignores {
		switch {
		case ig.malformed:
			all = append(all, Diagnostic{Pos: ig.pos, Rule: RuleUnusedIgnore,
				Message: "malformed directive; want //lint:ignore RULE reason"})
		case !ig.used:
			all = append(all, Diagnostic{Pos: ig.pos, Rule: RuleUnusedIgnore,
				Message: fmt.Sprintf("ignore directive for %q matches no diagnostic; delete it", ig.rule)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return all
}
