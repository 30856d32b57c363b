// Benchmarks regenerating every table and figure of the paper (plus the
// per-claim experiments E1–E10 of DESIGN.md). Each benchmark runs the full
// experiment and reports its headline metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation in one command. Absolute numbers come
// from the deterministic cost model (see EXPERIMENTS.md for the
// paper-vs-measured discussion); the asserted *shapes* — who wins, by
// what factor, where saturation sets in — are the reproduction targets.
//
// The reported metrics are each experiment's Result.Headline, the same
// numbers cmd/benchreport writes to the regression artifact
// (experiments.HeadlineArtifact, diffed by TestBenchRegression).
package repro_test

import (
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/jobs"
)

const benchSeed = 1234

func runExperiment(b *testing.B, id string, report func(b *testing.B, r *experiments.Result)) {
	b.Helper()
	b.ReportAllocs()
	spec, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		r, err := spec.Run(benchSeed)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && report != nil {
			report(b, r)
		}
	}
}

// headlines reports r's headline metrics (sorted for stable output).
func headlines(b *testing.B, r *experiments.Result) {
	keys := make([]string, 0, len(r.Headline))
	for k := range r.Headline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(r.Headline[k], k)
	}
}

// BenchmarkFig1ArchitectureComparison regenerates Figure 1's point: the
// HPC compute/storage split versus the Hadoop data-local layout.
func BenchmarkFig1ArchitectureComparison(b *testing.B) {
	runExperiment(b, "FIG1", headlines)
}

// BenchmarkFig2TopologyRender regenerates Figure 2 from live state.
func BenchmarkFig2TopologyRender(b *testing.B) {
	runExperiment(b, "FIG2", func(b *testing.B, r *experiments.Result) {
		b.ReportMetric(float64(len(r.Text)), "diagram-bytes")
	})
}

// BenchmarkTable1Proficiency regenerates Table I.
func BenchmarkTable1Proficiency(b *testing.B) { runExperiment(b, "T1", nil) }

// BenchmarkTable2TimeToComplete regenerates Table II.
func BenchmarkTable2TimeToComplete(b *testing.B) { runExperiment(b, "T2", nil) }

// BenchmarkTable3Helpfulness regenerates Table III.
func BenchmarkTable3Helpfulness(b *testing.B) { runExperiment(b, "T3", nil) }

// BenchmarkTable4YearToTeach regenerates Table IV.
func BenchmarkTable4YearToTeach(b *testing.B) { runExperiment(b, "T4", nil) }

// BenchmarkTable5Curriculum regenerates Table V.
func BenchmarkTable5Curriculum(b *testing.B) { runExperiment(b, "T5", nil) }

// BenchmarkE1DeadlineMeltdown replays the Fall 2012 meltdown.
func BenchmarkE1DeadlineMeltdown(b *testing.B) { runExperiment(b, "E1", headlines) }

// BenchmarkE2CombinerTradeoff measures the combiner's shuffle/map-time trade.
func BenchmarkE2CombinerTradeoff(b *testing.B) { runExperiment(b, "E2", headlines) }

// BenchmarkE3AirlineVariants compares the three delay-average designs.
func BenchmarkE3AirlineVariants(b *testing.B) { runExperiment(b, "E3", headlines) }

// BenchmarkE4SideDataAccess measures naive vs cached side-file access.
func BenchmarkE4SideDataAccess(b *testing.B) { runExperiment(b, "E4", headlines) }

// BenchmarkE5SerialVsCluster measures the same-jar cluster speedup.
func BenchmarkE5SerialVsCluster(b *testing.B) { runExperiment(b, "E5", headlines) }

// BenchmarkE6GhostDaemons sweeps the scheduler cleanup interval.
func BenchmarkE6GhostDaemons(b *testing.B) { runExperiment(b, "E6", headlines) }

// BenchmarkE7StagingTime evaluates staging cost at paper scale.
func BenchmarkE7StagingTime(b *testing.B) { runExperiment(b, "E7", headlines) }

// BenchmarkE8FsckRecovery replays the shell observation exercise.
func BenchmarkE8FsckRecovery(b *testing.B) { runExperiment(b, "E8", headlines) }

// BenchmarkE9Scalability measures the 1–16 node speedup curve.
func BenchmarkE9Scalability(b *testing.B) { runExperiment(b, "E9", headlines) }

// BenchmarkE10FileFormats compares the same corpus as text, whole-stream
// gzip and block-compressed SequenceFile, plus the shuffle-compression
// ablation.
func BenchmarkE10FileFormats(b *testing.B) { runExperiment(b, "E10", headlines) }

// BenchmarkE11JobHistory measures the history subsystem: event volumes,
// persisted bytes, and the critical path rebuilt from the event log.
func BenchmarkE11JobHistory(b *testing.B) { runExperiment(b, "E11", headlines) }

// BenchmarkE12Multitenant replays the 1,200-app Google-trace workload —
// the deadline meltdown at 10x enrollment — through FIFO and capacity
// scheduling and reports the fairness/cost headline metrics.
func BenchmarkE12Multitenant(b *testing.B) { runExperiment(b, "E12", headlines) }

// BenchmarkE13Serving sweeps the YCSB core mixes against the region
// server tier with and without the front-line cache, plus the
// crash-recovery scenario, and reports ops/sec, tail latency, cache
// speedup, and recovery headline metrics.
func BenchmarkE13Serving(b *testing.B) { runExperiment(b, "E13", headlines) }

// BenchmarkIdleControlPlane is what a cluster costs while it waits: 64
// nodes that have run one small job, then nothing but heartbeats, block
// reports and the NameNode's and JobTracker's monitors. One op is one
// simulated hour (about 158 000 events); internal/sim's
// BenchmarkHeartbeatFleet is the same fleet with empty handlers.
func BenchmarkIdleControlPlane(b *testing.B) {
	c, err := core.New(core.Options{Nodes: 64, Racks: 4, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 2000, Seed: benchSeed}); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Run(jobs.WordCount("/in", "/out", true)); err != nil {
		b.Fatal(err)
	}
	c.Engine.Advance(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	before := c.Engine.Processed
	for i := 0; i < b.N; i++ {
		c.Engine.Advance(time.Hour)
	}
	b.ReportMetric(float64(c.Engine.Processed-before)/b.Elapsed().Seconds(), "events/s")
}
