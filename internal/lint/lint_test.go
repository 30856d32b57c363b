package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// repoLoader returns a loader for the repository's own module.
func repoLoader(t *testing.T) *Loader {
	t.Helper()
	modRoot, err := FindModRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatalf("creating loader: %v", err)
	}
	return loader
}

// loadFixture loads one testdata package through the real loader.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	pkg, err := repoLoader(t).Load(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkg
}

// TestLoadRejectsTypeErrors: the loader is strict. A package that does
// not type-check is an error naming the offending file and line, never
// a package with partial type information.
func TestLoadRejectsTypeErrors(t *testing.T) {
	pkg, err := repoLoader(t).Load(filepath.Join("testdata", "broken"))
	if err == nil {
		t.Fatalf("loaded a package that does not type-check: %s", pkg.ImportPath)
	}
	if !strings.Contains(err.Error(), "broken.go:7:") {
		t.Errorf("error %q does not name broken.go:7", err)
	}
}

// wantRules parses the "want: rule [rule...]" annotations of a fixture
// package into base-filename:line -> sorted expected rules.
func wantRules(pkg *Package) map[string][]string {
	wants := map[string][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "want:")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, field := range strings.Fields(rest) {
					rule := strings.TrimFunc(field, func(r rune) bool {
						return !(r == '-' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9'))
					})
					if rule != "" {
						wants[key] = append(wants[key], rule)
					}
				}
			}
		}
	}
	for k := range wants {
		sort.Strings(wants[k])
	}
	return wants
}

// byLine groups diagnostics as base-filename:line -> sorted rules.
func byLine(diags []Diagnostic) map[string][]string {
	got := map[string][]string{}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		got[key] = append(got[key], d.Rule)
	}
	for k := range got {
		sort.Strings(got[k])
	}
	return got
}

func diffWantGot(t *testing.T, want, got map[string][]string) {
	t.Helper()
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if !reflect.DeepEqual(want[k], got[k]) {
			t.Errorf("%s: want %v, got %v", k, want[k], got[k])
		}
	}
}

// TestAnalyzersAgainstFixtures table-tests each analyzer in isolation:
// it must produce exactly the dirty-fixture findings annotated with its
// rule (positive cases) and nothing else (negative cases live on the
// unannotated lines of the same files).
func TestAnalyzersAgainstFixtures(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "dirty"))
	allWants := wantRules(pkg)
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			diags := Run([]*Package{pkg}, []*Analyzer{a})
			var mine []Diagnostic
			for _, d := range diags {
				// Stale-suppression findings are exercised separately in
				// TestIgnoreDirectives; a single-analyzer run leaves every
				// other rule's directives trivially unused.
				if d.Rule == a.Name {
					mine = append(mine, d)
				}
			}
			want := map[string][]string{}
			for key, rules := range allWants {
				for _, r := range rules {
					if r == a.Name {
						want[key] = append(want[key], r)
					}
				}
			}
			diffWantGot(t, want, byLine(mine))
		})
	}
}

// TestFullSuiteDirty runs the whole suite, including suppression
// handling and unused-ignore reporting, and compares against every
// annotation in the dirty fixture.
func TestFullSuiteDirty(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "dirty"))
	diags := Run([]*Package{pkg}, Analyzers())
	diffWantGot(t, wantRules(pkg), byLine(diags))
}

// TestCleanFixture: deterministic, hygienic code produces zero findings.
func TestCleanFixture(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "clean"))
	if diags := Run([]*Package{pkg}, Analyzers()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected: %s", d)
		}
	}
}

// TestIgnoreDirectives pins the suppression semantics: a matching
// directive silences exactly the one diagnostic on its target line
// (preceding-line and trailing forms), identical violations elsewhere
// still fire, and a directive matching nothing is reported as
// unused-ignore at its own line.
func TestIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "dirty"))
	diags := Run([]*Package{pkg}, Analyzers())
	var taintLines, unusedLines []int
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) != "ignore.go" {
			continue
		}
		switch d.Rule {
		case "dettaint":
			taintLines = append(taintLines, d.Pos.Line)
		case RuleUnusedIgnore:
			unusedLines = append(unusedLines, d.Pos.Line)
		default:
			t.Errorf("unexpected rule %s at ignore.go:%d", d.Rule, d.Pos.Line)
		}
	}
	// ignore.go holds four time.Now calls; the two suppressed ones must
	// not appear, the other two must.
	if len(taintLines) != 2 {
		t.Errorf("want exactly 2 unsuppressed dettaint findings in ignore.go, got %d at lines %v",
			len(taintLines), taintLines)
	}
	// Two directives match nothing: the wrong-rule one and the stale one.
	if len(unusedLines) != 2 {
		t.Errorf("want exactly 2 unused-ignore findings in ignore.go, got %d at lines %v",
			len(unusedLines), unusedLines)
	}
}

// TestMalformedIgnore: a directive missing its rule or reason is
// reported rather than silently dropped (or worse, silently honored).
func TestMalformedIgnore(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore dettaint
	_ = 1
	//lint:ignore
	_ = 2
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "malformed.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Dir: ".", ImportPath: "p", Fset: fset, Files: []*ast.File{f}}
	diags := Run([]*Package{pkg}, nil)
	if len(diags) != 2 {
		t.Fatalf("want 2 malformed-directive findings, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != RuleUnusedIgnore || !strings.Contains(d.Message, "malformed") {
			t.Errorf("want malformed %s finding, got %s", RuleUnusedIgnore, d)
		}
	}
}

// TestDiagnosticFormat pins the "file:line: [rule] message" rendering
// the Makefile gate and editors rely on.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "internal/serial/serial.go", Line: 61},
		Rule:    "dettaint",
		Message: "time.Now reads the wall clock",
	}
	want := "internal/serial/serial.go:61: [dettaint] time.Now reads the wall clock"
	if d.String() != want {
		t.Errorf("got %q, want %q", d.String(), want)
	}
}
