// Command benchreport runs the headline experiments (Figure 1 plus
// E1–E13) at a fixed seed and writes the machine-readable benchmark
// artifact (experiments.HeadlineArtifact) that the tier-2 regression
// test diffs against. Commit the artifact alongside the PR that changed
// the numbers; see docs/OBSERVABILITY.md for the workflow.
//
// Usage:
//
//	benchreport [-seed 1234] [-out BENCH_pr10.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1234, "deterministic seed (matches the bench suite's benchSeed)")
	out := flag.String("out", experiments.HeadlineArtifact, "output path for the headline-metrics artifact")
	flag.Parse()

	rep, err := experiments.Headlines(*seed)
	if err != nil {
		fatal(err)
	}
	data, err := rep.JSON()
	if err == nil {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d experiments, seed %d)\n", *out, len(rep.Experiments), rep.Seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
