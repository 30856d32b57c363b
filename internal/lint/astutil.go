package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// hasPathSegment reports whether the import path contains the given
// element (e.g. "internal", "cmd", "sim") as a whole path segment.
func hasPathSegment(importPath, segment string) bool {
	for _, s := range strings.Split(importPath, "/") {
		if s == segment {
			return true
		}
	}
	return false
}

// isCmdPackage reports whether the package is a binary under cmd/.
func isCmdPackage(pkg *Package) bool { return hasPathSegment(pkg.ImportPath, "cmd") }

// isInternalPackage reports whether the package is a library under internal/.
func isInternalPackage(pkg *Package) bool { return hasPathSegment(pkg.ImportPath, "internal") }

// fileOf returns the file containing the node, for import-table fallbacks.
func fileOf(pkg *Package, node ast.Node) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= node.Pos() && node.Pos() <= f.FileEnd {
			return f
		}
	}
	return nil
}

// pkgFuncCall resolves a call of the form pkgname.Func(...) to the
// imported package's path and the function name. It prefers type
// information (which sees through import renames and shadowing) and
// falls back to the file's import table when the checker could not
// resolve the identifier.
func pkgFuncCall(pkg *Package, call *ast.CallExpr) (path, fn string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	x, okX := sel.X.(*ast.Ident)
	if !okX {
		return "", "", false
	}
	if obj, okU := pkg.Info.Uses[x]; okU {
		pn, okP := obj.(*types.PkgName)
		if !okP {
			return "", "", false // a variable or field, not a package qualifier
		}
		return pn.Imported().Path(), sel.Sel.Name, true
	}
	// Fallback: match x against the file's imports by local or base name.
	f := fileOf(pkg, call)
	if f == nil {
		return "", "", false
	}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		local := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if local == x.Name {
			return p, sel.Sel.Name, true
		}
	}
	return "", "", false
}

// inspectAll walks every file of the package.
func inspectAll(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}
