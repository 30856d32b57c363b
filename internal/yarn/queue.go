package yarn

import (
	"fmt"
	"sort"
	"strings"
)

// QueueConfig declares one node of the hierarchical capacity-queue tree
// (Hadoop's capacity-scheduler.xml, minus the XML). Interior nodes carry
// children; leaves admit applications. Capacity is the share of the
// *parent's* guarantee this queue is promised; a leaf's effective
// guarantee is the product of Capacity down its path, as a fraction of
// the live cluster. MaxCapacity and UserLimitFactor bound elasticity:
// how far past its guarantee a queue (or one user inside it) may grow
// when the rest of the cluster is idle.
type QueueConfig struct {
	// Name is the queue's path segment ("students"); the full path joins
	// segments with dots ("root.students"). Root's name defaults to
	// "root".
	Name string
	// Capacity is the guaranteed share of the parent (siblings should
	// sum to 1.0; Validate enforces a 1% tolerance). Root's capacity is
	// fixed at 1.0.
	Capacity float64
	// MaxCapacity is the queue's elastic ceiling as an absolute fraction
	// of live cluster capacity (YARN's maximum-capacity). 0 means 1.0:
	// the queue may absorb the whole idle cluster.
	MaxCapacity float64
	// UserLimitFactor caps one user's usage inside the queue at
	// UserLimitFactor x the queue's guarantee (YARN's
	// user-limit-factor). 0 means 1.0: a single user can be promised at
	// most the queue's guarantee, however idle the cluster.
	UserLimitFactor float64
	// Children subdivide this queue; only childless queues admit apps.
	Children []QueueConfig
}

// DefaultQueues is the single-queue tree an RM built without Queues
// gets: one leaf owning the whole cluster with unbounded elasticity —
// FIFO, the baseline every multi-queue config is compared against.
func DefaultQueues() QueueConfig {
	return QueueConfig{
		Name: "root",
		Children: []QueueConfig{
			{Name: "default", Capacity: 1.0, UserLimitFactor: 100},
		},
	}
}

// DefaultQueue is the leaf apps land in when AppSpec.Queue is empty.
const DefaultQueue = "default"

// leafQueue is a resolved leaf of the queue tree with live accounting.
type leafQueue struct {
	path string // full dotted path ("root.students")
	leaf string // final segment ("students")

	guaranteedFrac float64 // product of Capacity down the path
	maxFrac        float64 // absolute ceiling fraction of live capacity
	ulf            float64 // user-limit factor

	used Resource
	// userUsed is lookup-only accounting (never ranged): per-user usage
	// for the user-limit check.
	userUsed map[string]Resource

	// apps holds every unfinished app admitted to this leaf, submission
	// order. Scheduling walks this slice, so order is deterministic.
	apps []*Application
}

// guaranteed returns the leaf's promised share of capacity c.
func (q *leafQueue) guaranteed(c Resource) Resource {
	return Resource{
		VCores:   int(float64(c.VCores) * q.guaranteedFrac),
		MemoryMB: int64(float64(c.MemoryMB) * q.guaranteedFrac),
	}
}

// maxAllowed returns the leaf's elastic ceiling against capacity c.
func (q *leafQueue) maxAllowed(c Resource) Resource {
	return Resource{
		VCores:   int(float64(c.VCores) * q.maxFrac),
		MemoryMB: int64(float64(c.MemoryMB) * q.maxFrac),
	}
}

// userCap returns the per-user ceiling inside the leaf against capacity c.
func (q *leafQueue) userCap(c Resource) Resource {
	g := q.guaranteed(c)
	return Resource{
		VCores:   int(float64(g.VCores) * q.ulf),
		MemoryMB: int64(float64(g.MemoryMB) * q.ulf),
	}
}

// usedRatio is the queue's scheduling priority key: vcore usage over
// vcore guarantee (the capacity scheduler's canonical dimension). Lower
// ratio = more underserved = served first.
func (q *leafQueue) usedRatio(c Resource) float64 {
	g := float64(c.VCores) * q.guaranteedFrac
	if g <= 0 {
		if q.used.VCores > 0 {
			return 1e18
		}
		return 1e17 // zero-guarantee queues go last but stay schedulable
	}
	return float64(q.used.VCores) / g
}

// byNeed orders leaves most underserved first: lowest usedRatio, ties by
// path. leaves must arrive path-sorted (rm.leaves order); the insertion
// sort is stable, allocates nothing, and there are a handful of leaves.
func byNeed(leaves []*leafQueue, c Resource) {
	for i := 1; i < len(leaves); i++ {
		for j := i; j > 0 && leaves[j].usedRatio(c) < leaves[j-1].usedRatio(c); j-- {
			leaves[j], leaves[j-1] = leaves[j-1], leaves[j]
		}
	}
}

// charge / uncharge maintain queue and per-user accounting.
func (q *leafQueue) charge(user string, r Resource) {
	q.used = q.used.plus(r)
	q.userUsed[user] = q.userUsed[user].plus(r)
}

func (q *leafQueue) uncharge(user string, r Resource) {
	q.used = q.used.minus(r)
	q.userUsed[user] = q.userUsed[user].minus(r)
}

func (q *leafQueue) removeApp(app *Application) {
	for i, a := range q.apps {
		if a == app {
			q.apps = append(q.apps[:i], q.apps[i+1:]...)
			return
		}
	}
}

// buildLeaves validates the tree and flattens it to leaves sorted by
// path. Returns an error for empty trees, sibling capacities that do not
// sum to ~1, or duplicate paths.
func buildLeaves(root QueueConfig) ([]*leafQueue, error) {
	if root.Name == "" {
		root.Name = "root"
	}
	root.Capacity = 1.0
	var leaves []*leafQueue
	seen := map[string]bool{}
	var walk func(q QueueConfig, path string, frac float64) error
	walk = func(q QueueConfig, path string, frac float64) error {
		if q.Name == "" {
			return fmt.Errorf("yarn: queue under %q has no name", path)
		}
		if strings.ContainsAny(q.Name, ". ,:") {
			return fmt.Errorf("yarn: queue name %q may not contain '.', ':', ',' or spaces", q.Name)
		}
		full := q.Name
		if path != "" {
			full = path + "." + q.Name
		}
		if seen[full] {
			return fmt.Errorf("yarn: duplicate queue path %q", full)
		}
		seen[full] = true
		eff := frac * q.Capacity
		if len(q.Children) == 0 {
			maxFrac := q.MaxCapacity
			if maxFrac <= 0 {
				maxFrac = 1.0
			}
			if maxFrac < eff-1e-9 {
				return fmt.Errorf("yarn: queue %q max capacity %.2f below its guarantee %.2f", full, maxFrac, eff)
			}
			ulf := q.UserLimitFactor
			if ulf <= 0 {
				ulf = 1.0
			}
			leaves = append(leaves, &leafQueue{
				path:           full,
				leaf:           q.Name,
				guaranteedFrac: eff,
				maxFrac:        maxFrac,
				ulf:            ulf,
				userUsed:       map[string]Resource{},
			})
			return nil
		}
		var sum float64
		for _, c := range q.Children {
			sum += c.Capacity
		}
		if sum < 0.99 || sum > 1.01 {
			return fmt.Errorf("yarn: children of %q have capacities summing to %.2f, want 1.0", full, sum)
		}
		for _, c := range q.Children {
			if err := walk(c, full, eff); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, "", 1.0); err != nil {
		return nil, err
	}
	if len(leaves) == 0 {
		return nil, fmt.Errorf("yarn: queue tree has no leaves")
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].path < leaves[j].path })
	return leaves, nil
}

// findLeaf resolves a queue reference: full dotted path first, then
// unique leaf segment. Empty name resolves to DefaultQueue when present,
// else the sole leaf.
func findLeaf(leaves []*leafQueue, name string) (*leafQueue, error) {
	if name == "" {
		if len(leaves) == 1 {
			return leaves[0], nil
		}
		name = DefaultQueue
	}
	var bySeg *leafQueue
	segMatches := 0
	for _, q := range leaves {
		if q.path == name {
			return q, nil
		}
		if q.leaf == name {
			bySeg = q
			segMatches++
		}
	}
	switch segMatches {
	case 1:
		return bySeg, nil
	case 0:
		return nil, fmt.Errorf("yarn: unknown queue %q", name)
	default:
		return nil, fmt.Errorf("yarn: queue name %q is ambiguous; use the full path", name)
	}
}
