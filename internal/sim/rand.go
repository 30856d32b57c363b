package sim

import "math/rand"

// Rand wraps a seeded math/rand source with the distribution helpers the
// simulations need. Each component takes its own Rand derived from a master
// seed so that adding randomness to one component does not perturb another.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic random source for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{rand.New(rand.NewSource(seed))}
}

// Derive returns a new independent source whose seed is a pure function of
// the parent seed and the label, so call-site ordering does not matter.
func (r *Rand) Derive(label string) *Rand {
	h := int64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return NewRand(h ^ r.Int63())
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Exponential returns an exponentially distributed value with the given mean.
func (r *Rand) Exponential(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Choice returns a uniformly chosen index in [0, n).
func (r *Rand) Choice(n int) int { return r.Intn(n) }

// Shuffled returns a shuffled copy of the indices [0, n).
func (r *Rand) Shuffled(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	r.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

// Zipf returns a generator of Zipf-distributed values in [0, n) with
// exponent s (>1 boosts skew). It mirrors rand.Zipf but with a friendlier
// constructor for the dataset generators.
func (r *Rand) Zipf(s float64, n uint64) *rand.Zipf {
	if s <= 1 {
		s = 1.0001
	}
	return rand.NewZipf(r.Rand, s, 1, n-1)
}
