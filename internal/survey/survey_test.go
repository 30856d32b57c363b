package survey

import (
	"math"
	"testing"
)

func TestTableIVSumsToRespondents(t *testing.T) {
	total := 0
	for _, r := range TableIV {
		total += r.Count
	}
	if total != Respondents {
		t.Fatalf("Table IV counts sum to %d, want %d", total, Respondents)
	}
}

func TestFitIntegerResponsesMatchesMoments(t *testing.T) {
	cases := []struct {
		mean, sd float64
		lo, hi   int
	}{
		{6.6, 1.2, 0, 10},
		{0.03, 0.2, 0, 10}, // the near-degenerate Hadoop "before" row
		{4.53, 1.16, 0, 10},
		{3.5, 0.7, 1, 4},
		{2.5, 1.1, 1, 4},
	}
	for _, c := range cases {
		xs := FitIntegerResponses(Respondents, c.mean, c.sd, c.lo, c.hi, 7)
		if len(xs) != Respondents {
			t.Fatalf("cohort size %d", len(xs))
		}
		for _, x := range xs {
			if x < c.lo || x > c.hi {
				t.Fatalf("response %d outside [%d,%d]", x, c.lo, c.hi)
			}
		}
		if dm := math.Abs(Mean(xs) - c.mean); dm > 0.06 {
			t.Fatalf("mean %.3f vs target %.3f (Δ=%.3f)", Mean(xs), c.mean, dm)
		}
		if ds := math.Abs(SampleSD(xs) - c.sd); ds > 0.15 {
			t.Fatalf("sd %.3f vs target %.3f (Δ=%.3f)", SampleSD(xs), c.sd, ds)
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	a := FitIntegerResponses(Respondents, 3.1, 0.9, 1, 4, 42)
	b := FitIntegerResponses(Respondents, 3.1, 0.9, 1, 4, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different cohorts")
		}
	}
}

func TestEveryPublishedRowIsAttainable(t *testing.T) {
	// Verify the published moments are achievable with integer responses
	// on the stated scales — a consistency check on the paper's tables.
	for i, r := range TableI {
		for _, half := range []struct {
			mean, sd float64
		}{{r.BeforeMean, r.BeforeSD}, {r.AfterMean, r.AfterSD}} {
			s := Synthesize(half.mean, half.sd, 0, 10, int64(i))
			if math.Abs(s.Mean-half.mean) > 0.06 || math.Abs(s.SD-half.sd) > 0.2 {
				t.Fatalf("Table I %s: synth %.2f±%.2f vs paper %.2f±%.2f",
					r.Topic, s.Mean, s.SD, half.mean, half.sd)
			}
		}
	}
	for i, r := range append(append([]RatedRow{}, TableII...), TableIII...) {
		s := Synthesize(r.Mean, r.SD, 1, 4, int64(50+i))
		if math.Abs(s.Mean-r.Mean) > 0.06 || math.Abs(s.SD-r.SD) > 0.2 {
			t.Fatalf("%s: synth %.2f±%.2f vs paper %.2f±%.2f", r.Label, s.Mean, s.SD, r.Mean, r.SD)
		}
	}
}

func TestMeanAndSD(t *testing.T) {
	xs := []int{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	want := math.Sqrt(32.0 / 7.0)
	if sd := SampleSD(xs); math.Abs(sd-want) > 1e-12 {
		t.Fatalf("sd = %v, want %v", sd, want)
	}
	if SampleSD([]int{3}) != 0 || Mean(nil) != 0 {
		t.Fatal("degenerate inputs mishandled")
	}
}
