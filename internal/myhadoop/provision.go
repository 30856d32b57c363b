package myhadoop

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mrcluster"
)

// HadoopRun is one student's dynamically provisioned Hadoop cluster: a
// private HDFS + MapReduce runtime over the reserved nodes, plus the
// daemon port bindings on the shared machine. All HDFS data lives on the
// reserved nodes' local disks (the supercomputer's parallel storage had
// no file locking, so myHadoop's persistent mode was unusable — data dies
// with the reservation).
type HadoopRun struct {
	Res *Reservation
	DFS *hdfs.MiniDFS
	MR  *mrcluster.MRCluster

	pbs     *PBS
	stopped bool
}

// ProvisionOptions tunes the per-student cluster.
type ProvisionOptions struct {
	HDFS hdfs.Config
	MR   mrcluster.Config
	Seed int64
}

// Provision starts Hadoop daemons on a running reservation's nodes and
// returns the private cluster. It fails with *GhostDaemonError when a
// required port is still bound by another user's orphaned daemon.
func Provision(p *PBS, r *Reservation, opts ProvisionOptions) (*HadoopRun, error) {
	if r.State != ResRunning {
		return nil, fmt.Errorf("myhadoop: reservation is not running")
	}
	run := &HadoopRun{Res: r, pbs: p}
	bind := func(node cluster.NodeID, kind string, port int) error {
		d, err := p.bindDaemon(r, node, kind, port)
		if err == nil {
			d.run = run
		}
		return err
	}
	for i, node := range r.Allocated {
		if i == 0 {
			if err := bind(node, "namenode", PortNameNode); err != nil {
				run.unbindAll()
				return nil, err
			}
			if err := bind(node, "jobtracker", PortJobTracker); err != nil {
				run.unbindAll()
				return nil, err
			}
		}
		if err := bind(node, "datanode", PortDataNode); err != nil {
			run.unbindAll()
			return nil, err
		}
		if err := bind(node, "tasktracker", PortTaskTracker); err != nil {
			run.unbindAll()
			return nil, err
		}
	}
	// The student's private cluster spans only the reserved nodes.
	topoCfg := cluster.PaperNodeConfig(len(r.Allocated), 1)
	topoCfg.HostPrefix = fmt.Sprintf("%s-node", r.User)
	subTopo := cluster.NewTopology(topoCfg)
	dfs, err := hdfs.NewMiniDFS(p.Engine, subTopo, hdfs.Options{Config: opts.HDFS, Seed: opts.Seed})
	if err != nil {
		run.unbindAll()
		return nil, err
	}
	run.DFS = dfs
	run.MR = mrcluster.NewMRCluster(dfs, opts.MR, opts.Seed+1)
	// Each binding now has a process behind it. Whoever removes the
	// binding — stop-all.sh, the clean-up script, the owner killing their
	// own ghost — ends that process's heartbeats on the shared engine too.
	for i, node := range r.Allocated {
		id := cluster.NodeID(i) // the private topology numbers its nodes from 0
		for _, d := range run.daemons(node) {
			switch d.Kind {
			case "namenode":
				d.kill = dfs.NN.Shutdown
			case "jobtracker":
				d.kill = run.MR.JT.Shutdown
			case "datanode":
				d.kill = dfs.DataNode(id).Kill
			case "tasktracker":
				d.kill = func() { run.MR.KillTaskTracker(id) }
			}
		}
	}
	return run, nil
}

// daemons lists the daemons the run bound on node that still hold their
// ports, in port order: PBS keeps the bindings, this run owns some.
func (h *HadoopRun) daemons(node cluster.NodeID) []*Daemon {
	return slices.DeleteFunc(h.pbs.Daemons(node), func(d *Daemon) bool { return d.run != h })
}

// unbindAll stops the run's daemons and releases their ports, in node and
// then port order.
func (h *HadoopRun) unbindAll() {
	for _, node := range h.Res.Allocated {
		for _, d := range h.daemons(node) {
			h.pbs.node(node).killDaemon(d.Port)
		}
	}
}

// StopDaemons shuts the Hadoop daemons down cleanly, stopping them and
// releasing their ports — what a student *should* do before exiting.
func (h *HadoopRun) StopDaemons() {
	if h.stopped {
		return
	}
	h.stopped = true
	h.Res.StoppedCleanly = true
	h.unbindAll()
}

// ExitWithoutStopping models a student logging out (or being evicted)
// with daemons still running: the ports stay bound and the daemons become
// ghosts once the nodes are reassigned.
func (h *HadoopRun) ExitWithoutStopping() {
	h.stopped = true
	h.Res.StoppedCleanly = false
}

// SubmissionScript is the myHadoop batch script of the paper's §III-D:
// the scheduler directives plus the canonical command sequence (create
// HDFS dirs, stage data in, health check, run the job, export results).
type SubmissionScript struct {
	User     string
	Nodes    int
	Walltime time.Duration
	RAM      string
	Commands []string
}

// DefaultScript returns the script skeleton students edited — only the
// physical configuration on the #PBS lines needed changing.
func DefaultScript(user string, nodes int, walltime time.Duration) SubmissionScript {
	return SubmissionScript{
		User:     user,
		Nodes:    nodes,
		Walltime: walltime,
		RAM:      "64gb",
		Commands: []string{
			"myhadoop-configure.sh",
			"start-all.sh",
			"hadoop fs -mkdir /user/" + user,
			"hadoop fs -put $HOME/data /user/" + user + "/data",
			"hadoop fsck /",
			"hadoop jar $HOME/job.jar /user/" + user + "/data /user/" + user + "/out",
			"hadoop fs -copyToLocal /user/" + user + "/out $HOME/out",
			"stop-all.sh",
			"myhadoop-cleanup.sh",
		},
	}
}

// Interactive inserts a sleep before the shutdown commands — the paper's
// trick for turning the batch platform interactive: "the students can
// also insert a sleep command into the submission script and turn the
// dynamic Hadoop platform into an interactive platform for the duration
// of the sleep command".
func (s SubmissionScript) Interactive(d time.Duration) SubmissionScript {
	out := s
	out.Commands = nil
	for _, c := range s.Commands {
		if c == "stop-all.sh" {
			out.Commands = append(out.Commands, fmt.Sprintf("sleep %d  # interactive window", int(d.Seconds())))
		}
		out.Commands = append(out.Commands, c)
	}
	return out
}

// Render prints the script as a PBS submission file.
func (s SubmissionScript) Render() string {
	out := fmt.Sprintf(`#!/bin/bash
#PBS -N myhadoop-%s
#PBS -l select=%d:ncpus=16:mem=%s
#PBS -l walltime=%s
`, s.User, s.Nodes, s.RAM, fmtWalltime(s.Walltime))
	for _, c := range s.Commands {
		out += c + "\n"
	}
	return out
}

func fmtWalltime(d time.Duration) string {
	h := int(d.Hours())
	m := int(d.Minutes()) % 60
	return fmt.Sprintf("%02d:%02d:00", h, m)
}
