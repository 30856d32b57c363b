// Package survey reproduces the paper's evaluation data: the four survey
// tables from the Fall 2013 offering (n=29 respondents of 39 enrolled).
// Surveys of human subjects cannot be re-run by a systems reproduction,
// so this package takes the published summary statistics as ground truth
// and (a) records them, (b) synthesises integer response cohorts whose
// sample mean and standard deviation match the published moments, and
// (c) recomputes the statistics from the cohorts, tabulated by experiments
// T1–T4, which shows the published moments fit the stated scales and n.
package survey

import (
	"math"

	"repro/internal/sim"
)

// Cohort sizes from the paper.
const (
	Respondents = 29
	ClassSize   = 39
)

// ProficiencyRow is one row of Table I (0–10 scale, before/after).
type ProficiencyRow struct {
	Topic                string
	BeforeMean, BeforeSD float64
	AfterMean, AfterSD   float64
}

// TableI is the published "Level of Proficiency" data.
var TableI = []ProficiencyRow{
	{"Java", 6.6, 1.2, 7.3, 1.1},
	{"Linux", 5.86, 1.7, 7.1, 1.7},
	{"Networking", 4.38, 1.6, 6.29, 1.5},
	{"Hadoop MapReduce", 0.03, 0.2, 4.53, 1.16},
}

// RatedRow is one row of Tables II and III (Likert-style scales).
type RatedRow struct {
	Label string
	Mean  float64
	SD    float64
}

// TableII is the published "Time to Complete" data (scale 1–4: <30 min,
// 30 min–2 h, 2–4 h, >4 h).
var TableII = []RatedRow{
	{"First Assignment", 3.5, 0.7},
	{"Second Assignment", 3.1, 0.9},
	{"Set up Hadoop cluster", 2.5, 1.1},
}

// TableIII is the published "Helpfulness of Lectures and Tutorials" data
// (scale 1–4: not useful … very useful).
var TableIII = []RatedRow{
	{"Lecture", 3.0, 0.9},
	{"In-class lab", 3.6, 0.7},
	{"Hadoop cluster tutorial", 2.9, 0.82},
}

// CountRow is one row of Table IV.
type CountRow struct {
	Level string
	Count int
}

// TableIV is the published "Lowest level of CS course that Hadoop
// MapReduce should be introduced" counts.
var TableIV = []CountRow{
	{"Senior", 7},
	{"Junior", 14},
	{"Sophomore", 6},
	{"Freshman", 2},
}

// Mean returns the arithmetic mean.
func Mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// SampleSD returns the n−1 sample standard deviation.
func SampleSD(xs []int) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := float64(x) - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// FitIntegerResponses synthesises n integer responses in [lo, hi] whose
// sample mean and SD match the targets as closely as integer data allows.
// It seeds a symmetric two-point spread at the right variance, rounds,
// then hill-climbs with single ±1 adjustments. Deterministic for a seed.
func FitIntegerResponses(n int, mean, sd float64, lo, hi int, seed int64) []int {
	rng := sim.NewRand(seed).Derive("survey")
	xs := make([]int, n)
	// Continuous seed: half +a, half −a around the mean.
	a := sd * math.Sqrt(float64(n-1)/float64(n))
	for i := range xs {
		v := mean
		if i%2 == 0 {
			v += a
		} else {
			v -= a
		}
		xs[i] = clampInt(int(math.Round(v)), lo, hi)
	}
	errOf := func() float64 {
		dm := Mean(xs) - mean
		ds := SampleSD(xs) - sd
		return dm*dm + 4*ds*ds
	}
	// Hill-climb: try ±1 moves, keep improvements.
	best := errOf()
	for pass := 0; pass < 400 && best > 1e-6; pass++ {
		improved := false
		order := rng.Shuffled(n)
		for _, i := range order {
			for _, d := range []int{1, -1} {
				nv := xs[i] + d
				if nv < lo || nv > hi {
					continue
				}
				old := xs[i]
				xs[i] = nv
				if e := errOf(); e < best {
					best = e
					improved = true
				} else {
					xs[i] = old
				}
			}
		}
		if !improved {
			break
		}
	}
	return xs
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Synthesized holds a cohort and its recomputed statistics.
type Synthesized struct {
	Responses []int
	Mean      float64
	SD        float64
}

// Synthesize fits a cohort for a published (mean, sd) on an integer scale.
func Synthesize(mean, sd float64, lo, hi int, seed int64) Synthesized {
	xs := FitIntegerResponses(Respondents, mean, sd, lo, hi, seed)
	return Synthesized{Responses: xs, Mean: Mean(xs), SD: SampleSD(xs)}
}
