package main

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// errWorse makes -compare exit 1 when any row reads "worse".
var errWorse = errors.New("at least one metric is worse")

// Verdicts of one (workload, metric) row.
const (
	vSame       = "same"
	vBetter     = "better"
	vWorse      = "worse"
	vUnresolved = "unresolved" // run-to-run spread wider than the bound
	vUngated    = "-"          // per-layer host time: reported, no bound
)

// spreadRatio is the interquartile range over the median, the measure
// of run-to-run noise the bounds are judged against.
func spreadRatio(m metricValue) float64 {
	if m.Value == 0 {
		return 0
	}
	return math.Abs(m.Q3-m.Q1) / math.Abs(m.Value)
}

// verdict judges metric def moving from a (the baseline) to b.
//
// Exact metrics (sim-clock values and counts) must be equal: the
// simulation is deterministic for a seed, so any difference is a change
// of behaviour and reads "worse" — except fail_ratio, which may fall.
// Bounded metrics compare medians against the bound; where either
// side's spread is wider than the bound the row is "unresolved", unless
// every iteration of b beat every iteration of a.
func verdict(def metricDef, a, b metricValue) string {
	lowerIsBetter := def.better == "lower"
	if def.exact {
		switch {
		case a.Value == b.Value:
			return vSame
		case def.name == "fail_ratio" && b.Value < a.Value:
			return vBetter
		default:
			return vWorse
		}
	}
	if def.bound == 0 {
		return vUngated
	}
	if a.Value == 0 {
		return vUnresolved
	}
	worsening := (b.Value - a.Value) / math.Abs(a.Value)
	if !lowerIsBetter {
		worsening = -worsening
	}
	hasSpread := a.Max != 0 || b.Max != 0
	if hasSpread && (spreadRatio(a) > def.bound || spreadRatio(b) > def.bound) {
		if lowerIsBetter && b.Max < a.Min || !lowerIsBetter && b.Min > a.Max {
			return vBetter
		}
		return vUnresolved
	}
	switch {
	case worsening > def.bound:
		return vWorse
	case worsening < -def.bound:
		return vBetter
	default:
		return vSame
	}
}

// compareFiles prints one row per (workload, metric) present in both
// result sets and returns errWorse if any row is worse.
func compareFiles(pathA, pathB string, out io.Writer) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-13s %-34s %16s %16s %9s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	worse := 0
	for _, w := range workloads {
		ra, rb := a.Results[w.name], b.Results[w.name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.Seed != rb.Seed {
			return fmt.Errorf("%s: seeds differ (%d, %d): exact metrics only compare at one seed", w.name, ra.Seed, rb.Seed)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range defs {
				ma, okA := ra.Metrics[def.name]
				mb, okB := rb.Metrics[def.name]
				if !okA || !okB {
					continue
				}
				v := verdict(def, ma, mb)
				if v == vWorse {
					worse++
				}
				change := "n/a"
				if ma.Value != 0 {
					change = fmt.Sprintf("%+.2f%%", 100*(mb.Value-ma.Value)/math.Abs(ma.Value))
				}
				fmt.Fprintf(out, "%-13s %-34s %16.6g %16.6g %9s  %s\n", w.name, def.name, ma.Value, mb.Value, change, v)
			}
		}
		if ra.Digest != rb.Digest {
			worse++
			fmt.Fprintf(out, "%-13s %-34s %16s %16s %9s  %s\n", w.name, "output digest", ra.Digest, rb.Digest, "", vWorse)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows: %w", worse, errWorse)
	}
	return nil
}
