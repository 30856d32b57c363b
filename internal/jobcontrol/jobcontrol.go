// Package jobcontrol sequences dependent MapReduce jobs, mirroring
// Hadoop's JobControl: real analyses (like the Google-trace assignment
// done properly with multiple reducers) are pipelines where one job's
// output directory is the next job's input. The controller runs jobs in
// the order they were added (a dependency order: a dependency must already
// be a node of the same Control) over any runtime — the standalone runner
// or the cluster — and can clean up intermediate outputs afterwards.
package jobcontrol

import (
	"errors"
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/vfs"
)

// RunFunc executes one job to completion on some runtime.
type RunFunc func(*mapreduce.Job) error

// State tracks a node through the pipeline run.
type State int

// Node states.
const (
	Waiting State = iota
	Succeeded
	Failed
	Skipped // a dependency failed
)

// Node is one job plus its dependencies.
type Node struct {
	Job   *mapreduce.Job
	State State
	Err   error

	deps []*Node
}

// Control is a set of jobs with dependencies.
type Control struct {
	nodes []*Node
	// Intermediate paths to delete after a fully successful run.
	intermediates []string
}

// New returns an empty controller.
func New() *Control { return &Control{} }

// Add registers a job that runs after all deps succeed. Each dep must be a
// node this Control already returned, so no cycle can be built.
func (c *Control) Add(job *mapreduce.Job, deps ...*Node) *Node {
	n := &Node{Job: job, deps: deps}
	c.nodes = append(c.nodes, n)
	return n
}

// AddIntermediate marks a path for deletion after a successful Run.
func (c *Control) AddIntermediate(path string) {
	c.intermediates = append(c.intermediates, path)
}

// Chain adds jobs in a linear sequence (each depends on the previous) and
// marks every output but the last as intermediate.
func (c *Control) Chain(jobs ...*mapreduce.Job) []*Node {
	var prev *Node
	var nodes []*Node
	for i, j := range jobs {
		var deps []*Node
		if prev != nil {
			deps = append(deps, prev)
		}
		prev = c.Add(j, deps...)
		nodes = append(nodes, prev)
		if i < len(jobs)-1 {
			c.AddIntermediate(j.OutputPath)
		}
	}
	return nodes
}

// ErrPipelineFailed reports at least one failed job.
var ErrPipelineFailed = errors.New("jobcontrol: pipeline failed")

// Run executes all jobs in the order they were added. On success it
// deletes the registered intermediate outputs from fs (pass nil to keep them).
func (c *Control) Run(run RunFunc, fs vfs.FileSystem) error {
	for _, n := range c.nodes {
		blocked := false
		for _, d := range n.deps {
			if d.State != Succeeded {
				blocked = true
				break
			}
		}
		if blocked {
			n.State = Skipped
			continue
		}
		if err := run(n.Job); err != nil {
			n.State = Failed
			n.Err = err
			continue
		}
		n.State = Succeeded
	}
	for _, n := range c.nodes {
		if n.State == Failed {
			return fmt.Errorf("%w: job %q: %v", ErrPipelineFailed, n.Job.Name, n.Err)
		}
		if n.State == Skipped {
			return fmt.Errorf("%w: job %q skipped (dependency failed)", ErrPipelineFailed, n.Job.Name)
		}
	}
	if fs != nil {
		for _, p := range c.intermediates {
			_ = fs.Remove(p, true)
		}
	}
	return nil
}
