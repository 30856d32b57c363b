// Package curriculum reproduces the paper's Table V: the mapping from the
// Hadoop MapReduce module's lectures and assignments to ACM/IEEE CS2013
// Parallel & Distributed Computing knowledge units and learning outcomes.
// Each outcome is additionally linked to the module of this reproduction
// that demonstrates it, making the table verifiable against the codebase.
package curriculum

import (
	"fmt"
	"strings"
)

// Outcome is one row of Table V.
type Outcome struct {
	Level         string // Familiarity, Usage, Assessment
	KnowledgeArea string
	KnowledgeUnit string
	Text          string
	// DemonstratedBy names the package/experiment in this reproduction
	// that exercises the outcome.
	DemonstratedBy string
}

// TableV is the published learning-outcome mapping, annotated with the
// reproduction artifacts.
var TableV = []Outcome{
	{
		Level:         "Familiarity",
		KnowledgeArea: "Parallel & Distributed Computing",
		KnowledgeUnit: "Parallelism Fundamentals",
		Text: "Distinguishing using computational resources for a faster answer " +
			"from managing efficient access to a shared resource",
		DemonstratedBy: "experiment FIG1 (internal/cluster: HPC vs data-local layouts)",
	},
	{
		Level:          "Familiarity",
		KnowledgeArea:  "Parallel & Distributed Computing",
		KnowledgeUnit:  "Parallel Architecture",
		Text:           "Describe the key performance challenges in different memory and distributed system topologies",
		DemonstratedBy: "internal/cluster cost model; experiment E9 (scalability sweep)",
	},
	{
		Level:          "Usage",
		KnowledgeArea:  "Parallel & Distributed Computing",
		KnowledgeUnit:  "Parallel Performance",
		Text:           "Explain performance impacts of data locality",
		DemonstratedBy: "internal/mrcluster locality scheduler; experiments FIG1, E9",
	},
	{
		Level:         "Familiarity",
		KnowledgeArea: "Information Management",
		KnowledgeUnit: "Distributed Databases",
		Text: "Explain the techniques used for data fragmentation, replication, and allocation " +
			"during the distributed database design process",
		DemonstratedBy: "internal/hdfs block placement & replication monitor; experiment E8 (fsck)",
	},
	{
		Level:          "Assessment",
		KnowledgeArea:  "Parallel & Distributed Computing",
		KnowledgeUnit:  "Parallel Algorithms, Analysis, and Programming",
		Text:           "Decompose a problem via map and reduce operations",
		DemonstratedBy: "internal/jobs (all course assignments); examples/",
	},
	{
		Level:          "Usage",
		KnowledgeArea:  "Parallel & Distributed Computing",
		KnowledgeUnit:  "Parallel Performance",
		Text:           "Observe how data distribution/layout can affect an algorithm's communication costs",
		DemonstratedBy: "experiments E2 (combiner), E3 (airline variants), E4 (side data)",
	},
}

// Render prints Table V.
func Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V: PDC Learning Outcomes through Hadoop MapReduce lectures and assignments\n")
	for _, o := range TableV {
		fmt.Fprintf(&b, "%-12s | %-33s | %s\n", o.Level, o.KnowledgeArea, o.KnowledgeUnit)
		fmt.Fprintf(&b, "             outcome: %s\n", o.Text)
		fmt.Fprintf(&b, "             reproduced by: %s\n", o.DemonstratedBy)
	}
	return b.String()
}
