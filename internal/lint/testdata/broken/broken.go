// Package broken is a lint fixture that does not type-check: the loader
// must refuse it, naming the file and line, rather than lint what
// resolved.
package broken

func count() int {
	return "three"
}
