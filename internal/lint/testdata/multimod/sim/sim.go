// Package sim stands in for the sanctioned randomness wrapper: its
// import path has a sim segment, so it may draw from the shared
// math/rand source, and that taint does not leave it.
package sim

import "math/rand"

// Draw rolls a die on the shared source.
func Draw() int {
	return rand.Intn(6)
}
