package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package directory. Only non-test
// files are loaded: tests may freely use wall-clock time, global rand and
// printing — the determinism rules protect the simulated system, not the
// harness around it.
type Package struct {
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// ImportPath is the module-relative import path (e.g. repro/internal/sim).
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks package directories inside one module.
// Imports of sibling module packages are resolved recursively; standard
// library imports go through go/importer's source importer. Results are
// cached, so loading all of ./internal/... type-checks each package once.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	std     types.Importer
	pkgs    map[string]*Package       // by absolute dir
	tpkgs   map[string]*types.Package // by import path
	loading map[string]bool           // cycle guard, by import path
}

// NewLoader returns a loader for the module rooted at modRoot.
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: abs,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		tpkgs:   map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// FindModRoot walks up from dir to the nearest directory containing go.mod.
func FindModRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// Load parses and type-checks the package in dir. A package that does
// not type-check is an error naming the first offending file:line.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[abs]; ok {
		return pkg, nil
	}
	importPath, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	files, err := l.parseDir(abs)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	pkg := &Package{
		Dir:        abs,
		ImportPath: importPath,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[abs] = pkg
	l.tpkgs[importPath] = tpkg
	return pkg, nil
}

func (l *Loader) importPathFor(abs string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", abs, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses the non-test .go files of dir in name order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer over module-internal packages and the
// standard library, so cross-package types (map fields, mutex embeds)
// resolve during analysis.
func (l *Loader) Import(path string) (*types.Package, error) {
	if tp, ok := l.tpkgs[path]; ok {
		return tp, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		dir := filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath)))
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	tp, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.tpkgs[path] = tp
	return tp, nil
}

// ExpandPatterns resolves driver arguments into package directories.
// "dir/..." walks recursively; plain paths name a single directory.
// Directories named testdata, vendored trees and dot/underscore dirs are
// skipped during expansion (matching the go tool), but an explicit plain
// argument always resolves — that is how the self-check test points the
// driver at internal/lint/testdata fixtures.
func ExpandPatterns(args []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, arg := range args {
		root, recursive := strings.CutSuffix(arg, "/...")
		if !recursive {
			if !hasGoFiles(arg) {
				return nil, fmt.Errorf("lint: no Go files in %s", arg)
			}
			add(filepath.Clean(arg))
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(filepath.Clean(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains non-test Go files.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
