package app

import (
	"math/rand"

	"example.com/mm/sim"
)

// roll draws from the shared source outside the sanctioned package.
func roll() int {
	return rand.Intn(6)
}

// drawOnly reaches the shared source only through sim, which sanctions
// it: no finding.
func drawOnly() int {
	return sim.Draw()
}

// both reaches the shared source through sim.Draw, first in source
// order, and through roll. Only the second chain counts, so the finding
// sits at roll().
func both() int {
	a := sim.Draw()
	return a + roll()
}

func top() int {
	return both()
}
