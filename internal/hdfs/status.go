package hdfs

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// StatusPage renders the NameNode web interface (dfshealth.jsp) as text:
// cluster capacity, live/dead DataNodes and block health — the view
// students tunneled to over SSH in the paper's first semester. The page
// is written through a tabwriter: tab-separated lines form a table, and a
// plain line ends it.
func (d *MiniDFS) StatusPage() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "=== NameNode 'dfshealth' (virtual time %v) ===\n", d.Engine.Now())
	if d.NN.InSafeMode() {
		fmt.Fprintf(tw, "*** Safe mode is ON: waiting for block reports ***\n")
	}
	var capacity, used int64
	live, dead := 0, 0
	for _, dn := range d.datanodes {
		capacity += dn.node.DiskBytes
		used += dn.UsedBytes()
		if dn.Alive() {
			live++
		} else {
			dead++
		}
	}
	pct := 0.0
	if capacity > 0 {
		pct = 100 * float64(used) / float64(capacity)
	}
	fmt.Fprintf(tw, "Configured capacity: %d B   DFS used: %d B (%.4f%%)\n", capacity, used, pct)
	fmt.Fprintf(tw, "Live nodes: %d   Dead nodes: %d   Blocks: %d\n",
		live, dead, len(d.NN.blocks))
	if rep, err := d.Fsck(); err == nil {
		fmt.Fprintf(tw, "Under-replicated blocks: %d   Missing blocks: %d\n", rep.UnderReplicated, rep.MissingBlocks)
	}
	fmt.Fprintf(tw, "\nNode\tState\tBlocks\tUsed (B)\tRack\n")
	for _, dn := range d.datanodes {
		state := "dead"
		if dn.Alive() {
			state = "live"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n",
			dn.node.Hostname, state, dn.NumBlocks(), dn.UsedBytes(), dn.node.Rack)
	}
	tw.Flush()
	return b.String()
}
