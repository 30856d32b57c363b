package yarn

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"
)

// StatusPage renders the ResourceManager's scheduler view — the page the
// web UI serves at /scheduler, modeled on the Hadoop RM's queue listing:
// the node pool, then one row per capacity queue (guarantee / ceiling /
// live usage / admitted apps), then the unfinished applications.
func (rm *ResourceManager) StatusPage() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	cap := rm.ClusterCapacity()
	fmt.Fprintf(tw, "Resource Manager (as of %v)\n\n", time.Duration(rm.eng.Now()).Round(time.Millisecond))
	fmt.Fprintf(tw, "Node pool: %d/%d nodes active, %d vcores / %d MB live capacity\n",
		rm.ActiveNodes(), len(rm.nodes), cap.VCores, cap.MemoryMB)
	fmt.Fprintf(tw, "Utilization: %.1f%%   Preemptions: %d   Node-hours: %.2f   Containers launched: %d\n",
		100*rm.Utilization(), rm.Preemptions(), rm.NodeHours(), rm.ContainersLaunched)

	fmt.Fprintf(tw, "\nQueues:\n  queue\tguarantee\tceiling\tused\tapps\n")
	for _, q := range rm.leaves {
		g, m := q.guaranteed(cap), q.maxAllowed(cap)
		fmt.Fprintf(tw, "  %s\t%d vc\t%d vc\t%d vc\t%d\n",
			q.path, g.VCores, m.VCores, q.used.VCores, len(q.apps))
	}

	live := len(rm.apps) - rm.appsFinished
	fmt.Fprintf(tw, "\nApplications: %d submitted, %d finished, %d live\n", len(rm.apps), rm.appsFinished, live)
	if live > 0 {
		fmt.Fprintf(tw, "  id\tname\tqueue\tuser\tcontainers\tpending\tpreempted\n")
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
			fmt.Fprintf(tw, "  app%05d\t%s\t%s\t%s\t%d\t%d\t%d\n",
				app.ID, app.Spec.Name, app.Queue, app.User,
				running, len(app.requests), app.Preemptions)
		}
	}
	tw.Flush()
	return b.String()
}
