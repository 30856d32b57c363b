package yarn

import "time"

// AutoscaleConfig tunes the elastic node pool. The topology handed to
// NewCapacityResourceManager is the pool's *maximum*; with autoscaling
// enabled only MinNodes start active and the monitor grows/shrinks the
// active set from queue pressure — the sigmaos autoscale/besched shape
// on the sim clock, so every sizing decision replays exactly.
type AutoscaleConfig struct {
	// Enabled turns the monitor on; off means the whole pool is always
	// active (fixed-size cluster).
	Enabled bool
	// MinNodes is the floor the pool never shrinks below (default 1).
	MinNodes int
	// Cooldown is the quiet period required after any scaling action
	// before a scale-down (default 2m), damping oscillation.
	Cooldown time.Duration
}

const (
	// autoscaleInterval is the monitor period (sim time).
	autoscaleInterval = 30 * time.Second
	// autoscaleStep bounds nodes added per scale-up tick. Scale-down
	// releases at most one node per tick regardless.
	autoscaleStep = 4
	// scaleDownIdle is the utilization threshold below which an idle
	// cluster sheds nodes.
	scaleDownIdle = 0.35
)

func (c AutoscaleConfig) withDefaults(pool int) AutoscaleConfig {
	if c.MinNodes <= 0 {
		c.MinNodes = 1
	}
	if c.MinNodes > pool {
		c.MinNodes = pool
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Minute
	}
	return c
}

// runAutoscale is the periodic monitor. Scale-up: when unserved vcore
// demand exceeds free capacity, activate the lowest-numbered parked
// nodes (up to autoscaleStep) to cover the shortfall. Scale-down: when
// there is no demand at all, utilization sits under the idle threshold,
// and the cooldown has passed, park the highest-numbered node that holds
// zero containers — never one with live work.
func (rm *ResourceManager) runAutoscale() {
	cfg := rm.autoscaleCfg
	demand := rm.pendingDemand()
	freeVC := 0
	for _, nm := range rm.nodes {
		if nm.active {
			freeVC += nm.free().VCores
		}
	}
	now := rm.eng.Now()
	if demand > freeVC {
		shortfall := demand - freeVC
		added := 0
		for _, nm := range rm.nodes {
			if added >= autoscaleStep || shortfall <= 0 {
				break
			}
			if nm.active {
				continue
			}
			rm.accrueNodeTime()
			nm.active = true
			added++
			shortfall -= nm.capacity.VCores
			rm.logNodeUp(nm, "scale_up")
		}
		if added > 0 {
			rm.lastScaleUp = now
			rm.m.scaleUps.Add(int64(added))
			rm.m.activeNodes.Set(int64(rm.ActiveNodes()))
			rm.kick()
		}
		return
	}
	if demand > 0 || rm.Utilization() >= scaleDownIdle {
		return
	}
	if now-rm.lastScaleUp < cfg.Cooldown || now-rm.lastScaleDown < cfg.Cooldown {
		return
	}
	for i := len(rm.nodes) - 1; i >= 0; i-- {
		nm := rm.nodes[i]
		if !nm.active || len(nm.containers) > 0 {
			continue
		}
		if rm.ActiveNodes() <= cfg.MinNodes {
			return
		}
		rm.accrueNodeTime()
		nm.active = false
		rm.lastScaleDown = now
		rm.m.scaleDowns.Inc()
		rm.m.activeNodes.Set(int64(rm.ActiveNodes()))
		rm.logNodeDown(nm, "scale_down")
		return // at most one node per tick
	}
}

// pendingDemand sums unserved vcore demand across every queue.
func (rm *ResourceManager) pendingDemand() int {
	demand := 0
	for _, q := range rm.leaves {
		demand += rm.queueDemand(q)
	}
	return demand
}

// accrueNodeTime integrates active-node count over sim time; called at
// every pool transition so the integral is exact.
func (rm *ResourceManager) accrueNodeTime() {
	now := rm.eng.Now()
	rm.nodeNanoseconds += float64(rm.ActiveNodes()) * float64(now-rm.lastAccrue)
	rm.lastAccrue = now
}

// NodeHours returns the pool's accumulated node-hours — the cost metric
// autoscaling exists to shrink.
func (rm *ResourceManager) NodeHours() float64 {
	rm.accrueNodeTime()
	return rm.nodeNanoseconds / float64(time.Hour)
}
