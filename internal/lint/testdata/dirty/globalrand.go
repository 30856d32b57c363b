package dirty

import (
	"math/rand"

	mrand "math/rand"
)

func globalDraws() int {
	x := rand.Intn(10)  // want: dettaint
	f := rand.Float64() // want: dettaint
	rand.Shuffle(3, func(i, j int) {}) // want: dettaint
	y := mrand.Int63() // want: dettaint
	return x + int(f) + int(y)
}

func opaqueSource(src rand.Source) *rand.Rand {
	return rand.New(src) // want: dettaint
}

func seededAllowed(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(100)
}
