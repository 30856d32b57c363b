package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/myhadoop"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// E6Point is one cleanup-interval setting's outcome.
type E6Point struct {
	Cleanup       time.Duration
	Sessions      int
	GhostFailures int
	FailureRate   float64
	OrphansKilled int
}

// E6Result is the structured outcome of E6.
type E6Result struct {
	Points []E6Point
}

// E6GhostDaemons sweeps the scheduler's clean-up interval and measures
// how often a student's myHadoop provisioning fails because another
// student's orphaned daemons still hold the Hadoop ports — the §II-B
// failure mode ("the student would have to wait 15 minutes for the
// scheduler to clean up these daemons").
func E6GhostDaemons(seed int64) (*Result, error) {
	const (
		sessions     = 40
		nodesPerUser = 8
		poolNodes    = 16
		uncleanRate  = 0.4
		meanGap      = 5 * time.Minute
		sessionLen   = 10 * time.Minute
	)
	res := &E6Result{}
	for _, cleanup := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, 30 * time.Minute} {
		eng := sim.NewEngine()
		topo := cluster.NewTopology(cluster.PaperNodeConfig(poolNodes, 1))
		pbs := myhadoop.NewPBS(eng, topo, cleanup)
		rng := sim.NewRand(seed).Derive("sessions")
		failures := 0
		for i := 0; i < sessions; i++ {
			eng.Advance(time.Duration(rng.Exponential(float64(meanGap))))
			user := fmt.Sprintf("student%02d", i)
			res2, err := pbs.Submit(user, nodesPerUser, time.Hour)
			if err != nil {
				return nil, err
			}
			if res2.State != myhadoop.ResRunning {
				// Pool busy; skip this arrival (the student comes back).
				continue
			}
			run, err := myhadoop.Provision(pbs, res2, myhadoop.ProvisionOptions{Seed: seed + int64(i)})
			var ghost *myhadoop.GhostDaemonError
			if errors.As(err, &ghost) {
				failures++
				pbs.Release(res2)
				continue
			}
			if err != nil {
				return nil, err
			}
			eng.Advance(sessionLen)
			if rng.Bernoulli(uncleanRate) {
				run.ExitWithoutStopping()
			} else {
				run.StopDaemons()
			}
			pbs.Release(res2)
		}
		res.Points = append(res.Points, E6Point{
			Cleanup:       cleanup,
			Sessions:      sessions,
			GhostFailures: failures,
			FailureRate:   float64(failures) / float64(sessions),
			OrphansKilled: pbs.OrphansKilled,
		})
	}
	out := &Result{
		ID:     "E6",
		Title:  "Provisioning failures from ghost daemons vs scheduler cleanup interval",
		Header: []string{"cleanup interval", "sessions", "ghost failures", "failure rate", "orphans killed"},
		Raw:    res,
		Headline: map[string]float64{
			"failure-rate-at-30m": res.Points[len(res.Points)-1].FailureRate,
		},
		Notes: []string{
			"40% of students exit without stopping Hadoop; ports stay bound until the cleanup script runs",
		},
	}
	for _, p := range res.Points {
		out.Rows = append(out.Rows, []string{
			p.Cleanup.String(),
			fmt.Sprintf("%d", p.Sessions),
			fmt.Sprintf("%d", p.GhostFailures),
			fmt.Sprintf("%.0f%%", 100*p.FailureRate),
			fmt.Sprintf("%d", p.OrphansKilled),
		})
	}
	return out, nil
}

// E7Point is one dataset's modelled staging time.
type E7Point struct {
	Dataset string
	Size    int64
	Staging time.Duration
}

// E7Result is the structured outcome of E7.
type E7Result struct {
	Points []E7Point
}

// StagingTime computes the modelled `hadoop fs -put` time for a dataset
// of the given size from a login node: per block, the pipeline bottleneck
// is the slowest of the gateway hop, the intra-rack forwarding hops and
// the replica disk writes. This is the same arithmetic the HDFS client
// charges per real block, evaluated analytically so paper-scale datasets
// (171 GB) need no real bytes.
func StagingTime(size, blockSize int64, cm cluster.CostModel) time.Duration {
	if size <= 0 {
		return 0
	}
	if blockSize <= 0 {
		blockSize = 64 << 20
	}
	var total time.Duration
	for off := int64(0); off < size; off += blockSize {
		b := blockSize
		if off+b > size {
			b = size - off
		}
		bottleneck := cm.Transfer(4, b) // gateway -> first DataNode
		if t := cm.Transfer(2, b); t > bottleneck {
			bottleneck = t
		}
		if t := cm.DiskWrite(b); t > bottleneck {
			bottleneck = t
		}
		total += bottleneck
	}
	return total
}

// E7Staging evaluates staging time at the paper's dataset scales: the
// Google trace "can take over an hour for students to stage"; the Yahoo
// data "takes less than five minutes to load ... into the HDFS file
// system".
func E7Staging(seed int64) (*Result, error) {
	cm := cluster.DefaultCostModel()
	const blockSize = 64 << 20
	datasets := []struct {
		name string
		size int64
	}{
		{"MovieLens ratings (assignment 1)", 250 * cluster.MB},
		{"Yahoo! Music (assignment 2)", 10 * cluster.GB},
		{"Airline on-time (labs)", 12 * cluster.GB},
		{"Google cluster trace", 171 * cluster.GB},
	}
	res := &E7Result{}
	out := &Result{
		ID:       "E7",
		Title:    "Modelled `hadoop fs -put` staging time from the login node",
		Header:   []string{"dataset", "size", "staging time", "paper anchor"},
		Raw:      res,
		Headline: map[string]float64{},
		Notes: []string{
			"64 MB blocks, 3-way pipeline, oversubscribed core uplink (default cost model)",
		},
	}
	anchors := map[string]string{
		"Google cluster trace":        "\"can take over an hour\"",
		"Yahoo! Music (assignment 2)": "\"less than five minutes\"",
	}
	for _, d := range datasets {
		t := StagingTime(d.size, blockSize, cm)
		res.Points = append(res.Points, E7Point{Dataset: d.name, Size: d.size, Staging: t})
		if d.size == 171*cluster.GB {
			out.Headline["trace-staging-minutes"] = t.Minutes()
		}
		sizeStr := fmt.Sprintf("%d GB", d.size/cluster.GB)
		if d.size < cluster.GB {
			sizeStr = fmt.Sprintf("%d MB", d.size/cluster.MB)
		}
		out.Rows = append(out.Rows, []string{
			d.name,
			sizeStr,
			t.Round(time.Second).String(),
			anchors[d.name],
		})
	}
	return out, nil
}

// E8Result is the structured outcome of E8.
type E8Result struct {
	UnderReplicatedAfterKill int
	HealthyAfterRecovery     bool
	Transcript               string
}

// E8FsckRecovery replays the assignment-2 shell exercise: stage data,
// inspect blocks and replication with fs commands, lose a DataNode, watch
// fsck report under-replication, and watch the replication monitor heal
// the filesystem.
func E8FsckRecovery(seed int64) (*Result, error) {
	c, err := core.New(core.Options{
		Nodes: 6,
		Seed:  seed,
		HDFS: hdfs.Config{
			BlockSize:           256 << 10,
			Replication:         3,
			HeartbeatInterval:   time.Second,
			HeartbeatExpiry:     10 * time.Second,
			ReplMonitorInterval: time.Minute,
		},
	})
	if err != nil {
		return nil, err
	}
	local := vfs.NewMemFS()
	if _, _, err := datagen.Music(local, "/home/ym", datagen.MusicOpts{Ratings: 15000, Seed: seed}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sh := &shell.Shell{FS: c.FS(), Local: local, Out: &buf, User: "student"}
	script := `
hadoop fs -mkdir /user/student
hadoop fs -put /home/ym/ratings.tsv /user/student/ratings.tsv
hadoop fs -put /home/ym/songs.tsv /user/student/songs.tsv
hadoop fs -ls /user/student
hadoop fs -stat /user/student/ratings.tsv
hadoop fs -locations /user/student/ratings.tsv
hadoop fs -setrep 2 /user/student/songs.tsv
hadoop fs -fsck /
`
	if err := sh.RunScript(script); err != nil {
		return nil, err
	}
	// Lose a DataNode holding a replica of the 3-replica file, and fsck
	// as soon as the NameNode has declared it dead.
	locs, err := c.DFS.NN.BlockLocations("/user/student/ratings.tsv")
	if err != nil {
		return nil, err
	}
	victim := locs[0].Nodes[0]
	fmt.Fprintf(&buf, "\n--- datanode on %s crashes; heartbeats expire ---\n", locs[0].Hosts[0])
	c.DFS.DataNode(victim).Kill()
	for slices.Contains(c.DFS.NN.LiveDataNodes(), victim) {
		c.Engine.Advance(time.Second)
	}
	midFsck, err := c.Fsck()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "$ hadoop fs -fsck /\n%s", midFsck)
	fmt.Fprintf(&buf, "\n--- replication monitor re-replicates from surviving copies ---\n")
	c.Engine.Advance(2 * time.Minute)
	if err := sh.Run("-fsck", "/"); err != nil {
		return nil, err
	}
	finalFsck, err := c.Fsck()
	if err != nil {
		return nil, err
	}
	res := &E8Result{
		UnderReplicatedAfterKill: midFsck.UnderReplicated,
		HealthyAfterRecovery:     finalFsck.Healthy() && finalFsck.UnderReplicated == 0,
		Transcript:               buf.String(),
	}
	return &Result{
		ID:    "E8",
		Title: "Shell transcript: observe how HDFS stores, replicates and recovers",
		Text:  res.Transcript,
		Raw:   res,
		Headline: map[string]float64{
			"under-replicated-after-kill": float64(res.UnderReplicatedAfterKill),
		},
	}, nil
}

// E9Point is one scalability measurement.
type E9Point struct {
	Nodes           int
	Makespan        time.Duration
	Speedup         float64
	LocalityPercent float64
}

// E9Result is the structured outcome of E9.
type E9Result struct {
	Points []E9Point
	// Speculation ablation under an injected straggler.
	StragglerWithout time.Duration
	StragglerWith    time.Duration
	SpeculationGain  float64
	// Placement ablation on a two-rack cluster: the default policy
	// guarantees rack-redundant replicas; random placement does not, and
	// loses blocks when a rack fails.
	RackRedundantDefaultPct     float64
	RackRedundantRandomPct      float64
	MissingAfterRackLossDefault int
	MissingAfterRackLossRandom  int
}

// E9Scalability measures the airline job's speedup from 1 to 16 nodes
// (the module's "understand the scalability and performance of MapReduce
// programs running on HDFS" objective) and ablates speculative execution
// under an 8x straggler node.
func E9Scalability(seed int64) (*Result, error) {
	res := &E9Result{}
	var base time.Duration
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		c, err := expCluster(seed, nodes, 64<<10, expMRConfig())
		if err != nil {
			return nil, err
		}
		if _, _, err := datagen.Airline(c.FS(), "/in/ontime.csv",
			datagen.AirlineOpts{Rows: 40000, Seed: seed}); err != nil {
			return nil, err
		}
		rep, err := c.Run(jobs.AirlineAvgDelayCombiner("/in", "/out"))
		if err != nil {
			return nil, err
		}
		if nodes == 1 {
			base = rep.Makespan()
		}
		res.Points = append(res.Points, E9Point{
			Nodes:           nodes,
			Makespan:        rep.Makespan(),
			Speedup:         float64(base) / float64(rep.Makespan()),
			LocalityPercent: 100 * rep.LocalityFraction(),
		})
	}
	// Speculation ablation.
	for _, spec := range []bool{false, true} {
		cfg := expMRConfig()
		cfg.Speculative = spec
		c, err := expCluster(seed, 8, 64<<10, cfg)
		if err != nil {
			return nil, err
		}
		c.MR.SetNodeSlowdown(3, 8)
		if _, _, err := datagen.Airline(c.FS(), "/in/ontime.csv",
			datagen.AirlineOpts{Rows: 40000, Seed: seed}); err != nil {
			return nil, err
		}
		rep, err := c.Run(jobs.AirlineAvgDelayCombiner("/in", "/out"))
		if err != nil {
			return nil, err
		}
		if spec {
			res.StragglerWith = rep.Makespan()
		} else {
			res.StragglerWithout = rep.Makespan()
		}
	}
	res.SpeculationGain = float64(res.StragglerWithout) / float64(res.StragglerWith)

	// Placement-policy ablation: the default policy's cross-rack replica
	// guarantees data survival when a whole rack fails; random placement
	// leaves a fraction of blocks confined to one rack.
	for _, random := range []bool{false, true} {
		c, err := core.New(core.Options{
			Nodes: 8,
			Racks: 2,
			Seed:  seed,
			HDFS: hdfs.Config{BlockSize: 64 << 10, Replication: 2,
				RandomPlacement: random, HeartbeatInterval: time.Second,
				HeartbeatExpiry: 5 * time.Second, ReplMonitorInterval: time.Hour},
		})
		if err != nil {
			return nil, err
		}
		if _, _, err := datagen.Airline(c.FS(), "/in/ontime.csv",
			datagen.AirlineOpts{Rows: 40000, Seed: seed}); err != nil {
			return nil, err
		}
		locs, err := c.FS().BlockLocations("/in/ontime.csv")
		if err != nil {
			return nil, err
		}
		spanning := 0
		for _, loc := range locs {
			racks := map[int]bool{}
			for _, n := range loc.Nodes {
				racks[c.Topology.RackOf(n)] = true
			}
			if len(racks) >= 2 {
				spanning++
			}
		}
		pct := 100 * float64(spanning) / float64(len(locs))
		// Rack 1 fails entirely; count the blocks HDFS can no longer serve.
		for _, id := range c.Topology.NodesInRack(1) {
			c.DFS.DataNode(id).Kill()
		}
		c.Engine.Advance(10 * time.Second)
		fsck, err := c.Fsck()
		if err != nil {
			return nil, err
		}
		if random {
			res.RackRedundantRandomPct = pct
			res.MissingAfterRackLossRandom = fsck.MissingBlocks
		} else {
			res.RackRedundantDefaultPct = pct
			res.MissingAfterRackLossDefault = fsck.MissingBlocks
		}
	}

	out := &Result{
		ID:     "E9",
		Title:  "Airline job scalability (1-16 nodes) and speculative-execution ablation",
		Header: []string{"nodes", "makespan", "speedup", "data-local maps"},
		Raw:    res,
		Headline: map[string]float64{
			"speedup-at-16-nodes": res.Points[len(res.Points)-1].Speedup,
			"speculation-gain-x":  res.SpeculationGain,
		},
	}
	for _, p := range res.Points {
		out.Rows = append(out.Rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			fmtDur(p.Makespan),
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.0f%%", p.LocalityPercent),
		})
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("8x straggler node, speculation off: %s; on: %s (%.2fx gain)",
			fmtDur(res.StragglerWithout), fmtDur(res.StragglerWith), res.SpeculationGain),
		fmt.Sprintf("placement ablation (2 racks, repl 2): rack-redundant blocks %.0f%% (default policy) vs %.0f%% (random); after losing a rack, missing blocks %d vs %d",
			res.RackRedundantDefaultPct, res.RackRedundantRandomPct,
			res.MissingAfterRackLossDefault, res.MissingAfterRackLossRandom))
	return out, nil
}
