package experiments

import (
	"encoding/json"
	"fmt"
)

// Headline metrics: the small set of "who wins, by what factor" numbers
// each experiment's claim turns on, which it states once in
// Result.Headline. The same map feeds both `go test -bench` (via
// b.ReportMetric in bench_test.go) and the regression artifact written by
// cmd/benchreport, so the two views can never drift apart.

// HeadlineArtifact is the committed headline-metrics artifact, relative
// to the repo root: cmd/benchreport (`make bench`) writes it and
// TestBenchRegression compares against it. There is one; a PR that moves
// a metric on purpose overwrites it and says why in CHANGES.md. Wall-
// clock numbers and their history live in bench/ (BENCHMARK.json).
const HeadlineArtifact = "BENCH_pr10.json"

// HeadlineReport is the machine-readable benchmark artifact
// (BENCH_<pr>.json): every headline metric at a fixed seed.
type HeadlineReport struct {
	Seed        int64                         `json:"seed"`
	Experiments map[string]map[string]float64 `json:"experiments"`
}

// Headlines runs every registered experiment at seed and collects the
// headline metrics of those that state any. Deterministic: the same seed
// yields the same report.
func Headlines(seed int64) (*HeadlineReport, error) {
	rep := &HeadlineReport{
		Seed:        seed,
		Experiments: map[string]map[string]float64{},
	}
	for _, spec := range Registry() {
		r, err := spec.Run(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.ID, err)
		}
		if r.Headline != nil {
			rep.Experiments[spec.ID] = r.Headline
		}
	}
	return rep, nil
}

// JSON renders the report stably: indented, keys sorted (encoding/json
// sorts map keys), trailing newline.
func (hr *HeadlineReport) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(hr, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
