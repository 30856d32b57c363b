package experiments

import (
	"fmt"
	"time"

	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
)

// VariantRow is one job variant's measurements, shared by E2/E3/E4.
type VariantRow struct {
	Variant      string
	MapPhase     time.Duration
	ReducePhase  time.Duration
	Makespan     time.Duration
	ShuffleBytes int64
	MemoryPeak   int64
	SideOpens    int64
	SideBytes    int64
}

func variantRowFromReport(name string, rep *mrcluster.Report) VariantRow {
	return VariantRow{
		Variant:      name,
		MapPhase:     rep.MapPhase(),
		ReducePhase:  rep.ReducePhase(),
		Makespan:     rep.Makespan(),
		ShuffleBytes: rep.ShuffleBytes(),
		MemoryPeak:   rep.Counters.Get(mapreduce.CtrMapperMemoryPeak),
		SideOpens:    rep.Counters.Get(mapreduce.CtrSideFileOpens),
		SideBytes:    rep.Counters.Get(mapreduce.CtrSideFileBytesRead),
	}
}

// E2Result is the structured outcome of E2.
type E2Result struct {
	Plain    VariantRow
	Combiner VariantRow
}

// E2Combiner reproduces the first lecture's observable trade-off: with
// the reducer doubling as combiner, "the students observe the tradeoff
// between increased map task run time ... versus reduced network traffic".
func E2Combiner(seed int64) (*Result, error) {
	res := &E2Result{}
	for _, withCombiner := range []bool{false, true} {
		c, err := expCluster(seed, 8, 64<<10, expMRConfig())
		if err != nil {
			return nil, err
		}
		if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt",
			datagen.TextOpts{Lines: 50000, Seed: seed}); err != nil {
			return nil, err
		}
		rep, err := c.Run(jobs.WordCount("/in", "/out", withCombiner))
		if err != nil {
			return nil, err
		}
		if withCombiner {
			res.Combiner = variantRowFromReport("wordcount+combiner", rep)
		} else {
			res.Plain = variantRowFromReport("wordcount", rep)
		}
	}
	out := &Result{
		ID:     "E2",
		Title:  "WordCount with and without the reducer-as-combiner",
		Header: []string{"variant", "map phase", "shuffle", "reduce phase", "makespan"},
		Raw:    res,
		Headline: map[string]float64{
			"shuffle-reduction-x": float64(res.Plain.ShuffleBytes) / float64(res.Combiner.ShuffleBytes),
			"map-phase-ratio":     float64(res.Combiner.MapPhase) / float64(res.Plain.MapPhase),
		},
		Notes: []string{
			"combiner raises map-side work but collapses shuffle volume to the per-split vocabulary",
		},
	}
	for _, r := range []VariantRow{res.Plain, res.Combiner} {
		out.Rows = append(out.Rows, []string{
			r.Variant, fmtDur(r.MapPhase), fmtMB(r.ShuffleBytes), fmtDur(r.ReducePhase), fmtDur(r.Makespan),
		})
	}
	return out, nil
}

// E3Result is the structured outcome of E3.
type E3Result struct {
	Plain    VariantRow
	Combiner VariantRow
	InMapper VariantRow
}

// E3Airline reproduces the MapReduce lab's three algorithmic designs for
// average delay per airline, emphasising "the trade-off in memory and
// network traffic due to different implementations of the combiner".
func E3Airline(seed int64) (*Result, error) {
	type variant struct {
		name  string
		build func(in, out string) *mapreduce.Job
		slot  *VariantRow
	}
	res := &E3Result{}
	builders := []variant{
		{"plain", jobs.AirlineAvgDelayPlain, &res.Plain},
		{"combiner+custom-value", jobs.AirlineAvgDelayCombiner, &res.Combiner},
		{"in-mapper-combining", jobs.AirlineAvgDelayInMapper, &res.InMapper},
	}
	for _, b := range builders {
		c, err := expCluster(seed, 8, 64<<10, expMRConfig())
		if err != nil {
			return nil, err
		}
		if _, _, err := datagen.Airline(c.FS(), "/in/ontime.csv",
			datagen.AirlineOpts{Rows: 40000, Seed: seed}); err != nil {
			return nil, err
		}
		rep, err := c.Run(b.build("/in", "/out"))
		if err != nil {
			return nil, err
		}
		*b.slot = variantRowFromReport(b.name, rep)
	}
	out := &Result{
		ID:     "E3",
		Title:  "Three average-delay implementations (Lin's algorithmic choices)",
		Header: []string{"variant", "shuffle", "mapper memory peak", "map phase", "makespan"},
		Raw:    res,
		Headline: map[string]float64{
			"plain-vs-imc-shuffle-x": float64(res.Plain.ShuffleBytes) / float64(res.InMapper.ShuffleBytes),
			"imc-memory-bytes":       float64(res.InMapper.MemoryPeak),
		},
	}
	for _, r := range []VariantRow{res.Plain, res.Combiner, res.InMapper} {
		out.Rows = append(out.Rows, []string{
			r.Variant, fmtMB(r.ShuffleBytes), fmt.Sprintf("%d B", r.MemoryPeak), fmtDur(r.MapPhase), fmtDur(r.Makespan),
		})
	}
	return out, nil
}

// E4Result is the structured outcome of E4.
type E4Result struct {
	Naive          VariantRow
	NaiveDistCache VariantRow // ablation: DistributedCache under the naive access pattern
	Cached         VariantRow
	Ratio          float64
}

// E4SideData reproduces the assignment's optimisation lesson: reading the
// genre side file inside every map call versus caching it once in Setup —
// "the optimized implementation of this external access ... can make the
// program run one order of magnitude faster".
func E4SideData(seed int64) (*Result, error) {
	res := &E4Result{}
	variants := []struct {
		name      string
		cached    bool
		distCache bool
		slot      *VariantRow
	}{
		{"naive (read per record)", false, false, &res.Naive},
		{"naive + DistributedCache", false, true, &res.NaiveDistCache},
		{"cached (read once in Setup)", true, false, &res.Cached},
	}
	for _, v := range variants {
		cfg := expMRConfig()
		cfg.DistributedCache = v.distCache
		c, err := expCluster(seed, 8, 128<<10, cfg)
		if err != nil {
			return nil, err
		}
		if _, _, err := datagen.Movies(c.FS(), "/ml",
			datagen.MovieOpts{Movies: 300, Users: 400, Ratings: 30000, Seed: seed}); err != nil {
			return nil, err
		}
		rep, err := c.Run(jobs.MovieGenreStats("/ml/ratings.dat", "/ml/movies.dat", "/out", v.cached))
		if err != nil {
			return nil, err
		}
		*v.slot = variantRowFromReport(v.name, rep)
	}
	res.Ratio = float64(res.Naive.Makespan) / float64(res.Cached.Makespan)
	out := &Result{
		ID:       "E4",
		Title:    "Side-data access pattern in the movie-genre join",
		Header:   []string{"variant", "side opens", "side bytes read", "map phase", "makespan"},
		Raw:      res,
		Headline: map[string]float64{"naive-vs-cached-x": res.Ratio},
		Notes: []string{
			fmt.Sprintf("naive/cached makespan ratio: %.1fx (paper: one order of magnitude; hours vs minutes at full scale)", res.Ratio),
			"ablation: DistributedCache removes the repeated HDFS reads but not the repeated parsing CPU",
		},
	}
	for _, r := range []VariantRow{res.Naive, res.NaiveDistCache, res.Cached} {
		out.Rows = append(out.Rows, []string{
			r.Variant, fmt.Sprintf("%d", r.SideOpens), fmtMB(r.SideBytes), fmtDur(r.MapPhase), fmtDur(r.Makespan),
		})
	}
	return out, nil
}

// E5Result is the structured outcome of E5.
type E5Result struct {
	SerialTime  time.Duration
	ClusterTime time.Duration
	Speedup     float64
	SameAnswer  bool
}

// E5SerialVsCluster reproduces assignment 2 part 1: "takes the jar files
// from the first assignment and reruns them on the data on HDFS ... to
// demonstrate the ease in which Hadoop MapReduce can immediately speed up
// the application without having to worry about parallel workload
// division, process' ranks, etc."
func E5SerialVsCluster(seed int64) (*Result, error) {
	outputs := map[string]string{}
	times := map[string]time.Duration{}
	for _, mode := range []struct {
		label string
		nodes int
		slots int
	}{{"standalone (1 node, 1 slot)", 1, 1}, {"8-node HDFS cluster", 8, 2}} {
		cfg := expMRConfig()
		cfg.MapSlotsPerNode = mode.slots
		c, err := expCluster(seed, mode.nodes, 64<<10, cfg)
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
		times[mode.label] = rep.Makespan()
		text, err := c.Output("/out")
		if err != nil {
			return nil, err
		}
		outputs[mode.label] = text
	}
	serialT := times["standalone (1 node, 1 slot)"]
	clusterT := times["8-node HDFS cluster"]
	res := &E5Result{
		SerialTime:  serialT,
		ClusterTime: clusterT,
		Speedup:     float64(serialT) / float64(clusterT),
		SameAnswer:  outputs["standalone (1 node, 1 slot)"] == outputs["8-node HDFS cluster"],
	}
	return &Result{
		ID:     "E5",
		Title:  "Same jar, standalone vs HDFS cluster (assignment 2 part 1)",
		Header: []string{"mode", "makespan"},
		Rows: [][]string{
			{"standalone (1 node, 1 slot)", fmtDur(serialT)},
			{"8-node HDFS cluster", fmtDur(clusterT)},
			{"speedup", fmt.Sprintf("%.2fx", res.Speedup)},
			{"identical output", fmt.Sprintf("%v", res.SameAnswer)},
		},
		Raw:      res,
		Headline: map[string]float64{"cluster-speedup-x": res.Speedup},
	}, nil
}
