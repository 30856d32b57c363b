package hdfs

import (
	"fmt"
	"strings"
)

// StatusPage renders the NameNode web interface (dfshealth.jsp) as text:
// cluster capacity, live/dead DataNodes and block health — the view
// students tunneled to over SSH in the paper's first semester.
func (d *MiniDFS) StatusPage() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== NameNode 'dfshealth' (virtual time %v) ===\n", d.Engine.Now())
	if d.NN.InSafeMode() {
		fmt.Fprintf(&b, "*** Safe mode is ON: waiting for block reports ***\n")
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
	fmt.Fprintf(&b, "Configured capacity: %d B   DFS used: %d B (%.4f%%)\n",
		capacity, used, pct(used, capacity))
	fmt.Fprintf(&b, "Live nodes: %d   Dead nodes: %d   Blocks: %d\n",
		live, dead, len(d.NN.blocks))
	if rep, err := d.Fsck(); err == nil {
		fmt.Fprintf(&b, "Under-replicated blocks: %d   Missing blocks: %d\n", rep.UnderReplicated, rep.MissingBlocks)
	}
	fmt.Fprintf(&b, "\n%-10s %-6s %10s %10s %8s\n", "Node", "State", "Blocks", "Used (B)", "Rack")
	for _, dn := range d.datanodes {
		state := "dead"
		if dn.Alive() {
			state = "live"
		}
		fmt.Fprintf(&b, "%-10s %-6s %10d %10d %8d\n",
			dn.node.Hostname, state, dn.NumBlocks(), dn.UsedBytes(), dn.node.Rack)
	}
	return b.String()
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
