package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mrcluster"
)

// Fig1Point is one node count's makespans under both layouts.
type Fig1Point struct {
	Nodes           int
	HadoopMakespan  time.Duration
	HPCMakespan     time.Duration
	Slowdown        float64
	LocalityPercent float64
}

// Fig1Result is the structured outcome of FIG1.
type Fig1Result struct {
	Points []Fig1Point
}

// fig1Cost narrows the shared array so that storage contention appears
// within a 16-node sweep (a full HPC machine reaches the same regime with
// thousands of readers).
func fig1Cost() cluster.CostModel {
	cm := cluster.DefaultCostModel()
	cm.CoreBW = 100 * cluster.MB
	cm.ParallelStorageAggBW = 120 * cluster.MB
	return cm
}

// fig1MRConfig trims task startup so the sweep measures I/O architecture
// rather than JVM launch time.
func fig1MRConfig() mrcluster.Config {
	cfg := expMRConfig()
	cfg.MapWork.Startup = 10 * time.Millisecond
	cfg.ReduceWork.Startup = 10 * time.Millisecond
	return cfg
}

// Fig1 reproduces Figure 1's architectural point quantitatively: the same
// WordCount over the same bytes, on (a) the typical HPC layout with
// compute separated from shared parallel storage and (b) the Hadoop
// layout with storage on the compute nodes. Locality lets (b) scale;
// (a) saturates at the storage array's aggregate bandwidth.
func Fig1(seed int64) (*Result, error) {
	res := &Fig1Result{}
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		var hadoopT, hpcT time.Duration
		var locality float64
		for _, shared := range []bool{false, true} {
			cm := fig1Cost()
			mrCfg := fig1MRConfig()
			mrCfg.SharedStorage = shared
			c, err := core.New(core.Options{
				Nodes: nodes,
				Seed:  seed,
				HDFS:  hdfs.Config{BlockSize: 512 << 10, Replication: 3},
				MR:    mrCfg,
				Cost:  &cm,
			})
			if err != nil {
				return nil, err
			}
			if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt",
				datagen.TextOpts{Lines: 150000, Seed: seed}); err != nil {
				return nil, err
			}
			rep, err := c.Run(jobs.WordCount("/in", "/out", true))
			if err != nil {
				return nil, err
			}
			if shared {
				hpcT = rep.Makespan()
			} else {
				hadoopT = rep.Makespan()
				locality = 100 * rep.LocalityFraction()
			}
		}
		res.Points = append(res.Points, Fig1Point{
			Nodes:           nodes,
			HadoopMakespan:  hadoopT,
			HPCMakespan:     hpcT,
			Slowdown:        float64(hpcT) / float64(hadoopT),
			LocalityPercent: locality,
		})
	}
	last := res.Points[len(res.Points)-1]
	out := &Result{
		ID:     "FIG1",
		Title:  "WordCount makespan: Hadoop data-local layout vs HPC shared-storage layout",
		Header: []string{"nodes", "hadoop (fig 1b)", "hpc (fig 1a)", "hpc/hadoop", "data-local maps"},
		Raw:    res,
		Headline: map[string]float64{
			"hpc-slowdown-at-16-nodes": last.Slowdown,
			"locality-%":               last.LocalityPercent,
		},
		Notes: []string{
			"same job, same bytes; only the storage architecture differs",
			"HPC reads contend for the parallel array's aggregate bandwidth, so added nodes stop helping",
		},
	}
	for _, p := range res.Points {
		out.Rows = append(out.Rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			fmtDur(p.HadoopMakespan),
			fmtDur(p.HPCMakespan),
			fmt.Sprintf("%.2fx", p.Slowdown),
			fmt.Sprintf("%.0f%%", p.LocalityPercent),
		})
	}
	return out, nil
}

// Fig2 regenerates the paper's component-relationship diagram from a live
// cluster carrying real files.
func Fig2(seed int64) (*Result, error) {
	c, err := core.New(core.Options{
		Nodes: 4,
		Seed:  seed,
		HDFS:  hdfs.Config{BlockSize: 1 << 20, Replication: 3},
		MR:    mrcluster.Config{},
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := datagen.Text(c.FS(), "/user/student/input/file01.txt",
		datagen.TextOpts{Lines: 30000, Seed: seed}); err != nil {
		return nil, err
	}
	if _, _, err := datagen.Airline(c.FS(), "/user/student/input/file02.csv",
		datagen.AirlineOpts{Rows: 8000, Seed: seed}); err != nil {
		return nil, err
	}
	return &Result{
		ID:    "FIG2",
		Title: "Component topology rendered from live cluster state",
		Text:  c.RenderTopology(),
		Raw:   c,
	}, nil
}
