package lint

import (
	"go/ast"
	"go/types"
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

// pkgFuncCall resolves a call of the form pkgname.Func(...) to the
// imported package's path and the function name. The checker's answer
// sees through import renames and shadowing.
func pkgFuncCall(pkg *Package, call *ast.CallExpr) (path, fn string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	x, okX := sel.X.(*ast.Ident)
	if !okX {
		return "", "", false
	}
	pn, okP := pkg.Info.Uses[x].(*types.PkgName)
	if !okP {
		return "", "", false // a variable or field, not a package qualifier
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// inspectAll walks every file of the package.
func inspectAll(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}
