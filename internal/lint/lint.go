// Package lint is a small, stdlib-only static-analysis framework with
// analyzers enforcing the repo's determinism and hygiene invariants:
// no wall-clock time or global randomness in sim-facing packages, no
// order-dependent iteration over maps, no printing or exiting from
// library code, every mutex a leaf lock (released in the block that
// locks it, never leaked by a return or held across a call that locks),
// and no dropped errors on commit paths. Every subsystem's testability
// (golden traces, seed sweeps, fault-injection replays) rests on
// bit-for-bit reproducibility; these rules make that a machine-checked
// property of the build instead of a convention.
//
// The framework loads packages with go/parser and type-checks them with
// go/types (see load.go), builds one module-aware static call graph over
// all of them (callgraph.go), and runs each Analyzer once over the
// packages and the graph. The interprocedural rules see through helper
// functions and report the call chain behind a finding: dettaint
// (determinism taint, from a direct call to any depth), lockorder
// (a call under a held lock that reaches another lock acquisition:
// self-deadlock, ABBA, recursive read locks) and commiterr
// (dropped errors on durability-critical commit paths). Run then applies
// "//lint:ignore RULE reason" suppression directives and reports stale
// ones as unused-ignore findings. cmd/minilint is the CLI driver.
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

// An Analyzer checks one property over the whole program.
type Analyzer struct {
	// Name is the rule name used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description for -list output and docs.
	Doc string
	// Run reports findings through pass.Report.
	Run func(pass *Pass)
}

// A Pass is one analyzer execution: every loaded package plus the shared
// call graph. Test files are never loaded; see load.go.
type Pass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *CallGraph
	Fset     *token.FileSet
	diags    []Diagnostic
}

// Report records a finding at pos with an optional call-chain trace
// (outermost caller first; nil for trace-less findings).
func (p *Pass) Report(pos token.Pos, trace []string, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
		Trace:   trace,
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Maporder,
		Libhygiene,
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

// Run builds the call graph, executes every analyzer over it, applies
// suppression directives, reports stale ones, and returns the findings
// sorted by position then rule.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	if len(analyzers) > 0 && len(pkgs) > 0 {
		graph := BuildCallGraph(pkgs)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkgs: pkgs, Graph: graph, Fset: pkgs[0].Fset}
			a.Run(pass)
			raw = append(raw, pass.diags...)
		}
	}
	// Suppression directives match diagnostics by filename and line, so
	// they are gathered from every package and applied globally: a
	// finding lands in whichever package its position falls in.
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
