// Package experiments regenerates every table and figure of the paper,
// plus one experiment per quantitative claim in its narrative (the
// DESIGN.md experiment index). Each experiment is deterministic, runs on
// the virtual clock, and returns both a rendered artifact and structured
// results that the benchmark harness asserts on.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"
	"unicode/utf8"

	"repro/internal/cluster"
	"repro/internal/mrcluster"
)

// Result is one regenerated artifact: a table (Header/Rows), free text,
// or both, plus structured data for assertions.
type Result struct {
	ID    string
	Title string

	Header []string
	Rows   [][]string
	Notes  []string
	Text   string

	// Raw holds the experiment-specific result struct.
	Raw any
}

// String renders the artifact.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if r.Text != "" {
		b.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			b.WriteByte('\n')
		}
	}
	if len(r.Header) > 0 {
		tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
		rule := make([]string, len(r.Header))
		for i, h := range r.Header {
			rule[i] = strings.Repeat("-", utf8.RuneCountInString(h))
		}
		for _, row := range append([][]string{r.Header, rule}, r.Rows...) {
			fmt.Fprintln(tw, strings.Join(row, "\t"))
		}
		tw.Flush()
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Spec names a runnable experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(seed int64) (*Result, error)
}

// Registry returns all experiments in presentation order.
func Registry() []Spec {
	return []Spec{
		{"FIG1", "Architecture comparison: HPC shared storage vs Hadoop data locality", Fig1},
		{"FIG2", "HDFS/MapReduce component topology from live cluster state", Fig2},
		{"T1", "Table I: Level of Proficiency", Table1},
		{"T2", "Table II: Time to Complete", Table2},
		{"T3", "Table III: Helpfulness of Lectures and Tutorials", Table3},
		{"T4", "Table IV: Lowest level to teach Hadoop MapReduce", Table4},
		{"T5", "Table V: PDC learning outcomes", Table5},
		{"E1", "Fall 2012 deadline meltdown and recovery", E1Meltdown},
		{"E2", "Combiner trade-off: map time vs shuffle volume", E2Combiner},
		{"E3", "Three airline-delay implementations", E3Airline},
		{"E4", "Side-data access patterns: naive vs cached", E4SideData},
		{"E5", "Same jar, standalone vs HDFS cluster", E5SerialVsCluster},
		{"E6", "Ghost daemons vs scheduler cleanup interval", E6GhostDaemons},
		{"E7", "Data staging time at paper scale", E7Staging},
		{"E8", "HDFS shell session: replication, failure, recovery", E8FsckRecovery},
		{"E9", "Scalability and speculative-execution ablation", E9Scalability},
		{"E10", "File formats and compression: splittable vs whole-stream", E10Formats},
		{"E11", "Job history & audit: reconstructing a run from its event logs", E11History},
		{"E12", "Multi-tenant YARN: deadline meltdown at 10x, FIFO vs capacity+preemption", E12Multitenant},
		{"E13", "Online serving: YCSB mixes on region servers, cache tier, crash recovery", E13Serving},
	}
}

// Lookup finds an experiment by ID (case-insensitive).
func Lookup(id string) (Spec, bool) {
	for _, s := range Registry() {
		if strings.EqualFold(s.ID, id) {
			return s, true
		}
	}
	return Spec{}, false
}

// expMRConfig is the calibrated runtime config for scaled-down data: task
// startup trimmed so that per-byte and per-record effects (the ones the
// experiments measure) are visible at megabyte scale.
func expMRConfig() mrcluster.Config {
	return mrcluster.Config{
		MapWork:     cluster.CPUWork{Startup: 100 * time.Millisecond, PerByte: 10, PerRecord: 1000},
		ReduceWork:  cluster.CPUWork{Startup: 100 * time.Millisecond, PerByte: 8, PerRecord: 800},
		CombineWork: cluster.CPUWork{PerRecord: 150},
	}
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

func fmtMB(b int64) string {
	return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
}
