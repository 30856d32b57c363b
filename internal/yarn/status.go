package yarn

import (
	"fmt"
	"strings"
	"time"
)

// StatusPage renders the ResourceManager's scheduler view — the page the
// web UI serves at /scheduler, modeled on the Hadoop RM's queue listing:
// the node pool, then one row per capacity queue (guarantee / ceiling /
// live usage / admitted apps), then the unfinished applications.
func (rm *ResourceManager) StatusPage() string {
	var b strings.Builder
	cap := rm.ClusterCapacity()
	fmt.Fprintf(&b, "Resource Manager (as of %v)\n\n", time.Duration(rm.eng.Now()).Round(time.Millisecond))
	fmt.Fprintf(&b, "Node pool: %d/%d nodes active, %d vcores / %d MB live capacity\n",
		rm.ActiveNodes(), len(rm.nodes), cap.VCores, cap.MemoryMB)
	fmt.Fprintf(&b, "Utilization: %.1f%%   Preemptions: %d   Node-hours: %.2f   Containers launched: %d\n",
		100*rm.Utilization(), rm.Preemptions(), rm.NodeHours(), rm.ContainersLaunched)

	b.WriteString("\nQueues:\n")
	fmt.Fprintf(&b, "  %-20s %10s %10s %10s %6s\n", "queue", "guarantee", "ceiling", "used", "apps")
	for _, q := range rm.leaves {
		g, m := q.guaranteed(cap), q.maxAllowed(cap)
		fmt.Fprintf(&b, "  %-20s %7d vc %7d vc %7d vc %6d\n",
			q.path, g.VCores, m.VCores, q.used.VCores, len(q.apps))
	}

	live := len(rm.apps) - rm.appsFinished
	fmt.Fprintf(&b, "\nApplications: %d submitted, %d finished, %d live\n", len(rm.apps), rm.appsFinished, live)
	if live > 0 {
		fmt.Fprintf(&b, "  %-8s %-24s %-16s %-10s %10s %8s %9s\n",
			"id", "name", "queue", "user", "containers", "pending", "preempted")
		for _, app := range rm.apps {
			if app.State == AppFinished {
				continue
			}
			running := 0
			for _, c := range app.containers {
				if !c.Released() {
					running++
				}
			}
			if app.amContainer != nil && !app.amContainer.Released() {
				running++ // the AM's own container
			}
			fmt.Fprintf(&b, "  app%05d %-24s %-16s %-10s %10d %8d %9d\n",
				app.ID, app.Spec.Name, app.Queue, app.User,
				running, len(app.requests), app.Preemptions)
		}
	}
	return b.String()
}
