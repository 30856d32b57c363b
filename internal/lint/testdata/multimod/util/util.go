// Package util is one package of the synthetic module the callgraph
// tests load: a leaf helper whose only call is an external stdlib
// function.
package util

import "time"

// Stamp reaches the wall clock, giving the graph an external leaf.
func Stamp() int64 {
	return time.Now().UnixNano()
}
