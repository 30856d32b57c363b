package yarn

import "repro/internal/obs"

// rmMetrics is the ResourceManager's interned metric bundle. All handles
// are nil-safe, so an RM built without a registry costs nothing. reg
// keeps the registry itself for span recording.
type rmMetrics struct {
	reg                 *obs.Registry
	events              *obs.Counter
	appsSubmitted       *obs.Counter
	appsFinished        *obs.Counter
	containersAllocated *obs.Counter
	containersReleased  *obs.Counter
	containersPreempted *obs.Counter
	scaleUps            *obs.Counter
	scaleDowns          *obs.Counter
	activeNodes         *obs.Gauge
	pendingApps         *obs.Gauge
}

func newRMMetrics(r *obs.Registry) rmMetrics {
	return rmMetrics{
		reg:                 r,
		events:              r.Counter("rm.events"),
		appsSubmitted:       r.Counter("rm.apps_submitted"),
		appsFinished:        r.Counter("rm.apps_finished"),
		containersAllocated: r.Counter("rm.containers_allocated"),
		containersReleased:  r.Counter("rm.containers_released"),
		containersPreempted: r.Counter("rm.containers_preempted"),
		scaleUps:            r.Counter("rm.scale_ups"),
		scaleDowns:          r.Counter("rm.scale_downs"),
		activeNodes:         r.Gauge("rm.active_nodes"),
		pendingApps:         r.Gauge("rm.pending_apps"),
	}
}
