// Package app is the caller side of the synthetic module: it exercises
// cross-package calls, method resolution and function-literal edges.
package app

import "example.com/mm/util"

type Runner struct {
	last int64
}

// Tick is a method whose body calls across packages.
func (r *Runner) Tick() int64 {
	r.last = util.Stamp()
	return r.last
}

// Run calls a method statically and a cross-package function from
// inside a function literal.
func Run() int64 {
	r := &Runner{}
	f := func() int64 { return util.Stamp() }
	return r.Tick() + f()
}
