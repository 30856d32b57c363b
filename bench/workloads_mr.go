package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/vfs"
)

const (
	mrBlockSize = 512 << 10
	inputDir    = "/in"
	outputDir   = "/out"
)

// scaled sizes a workload dimension, never below min.
func scaled(n int, scale float64, min int) int {
	if m := int(float64(n) * scale); m > min {
		return m
	}
	return min
}

// mrHDFS is the HDFS every MapReduce workload runs on.
var mrHDFS = hdfs.Config{BlockSize: mrBlockSize, Replication: 3}

// mrOptions is the cluster every MapReduce workload builds: mrHDFS and
// the experiments' calibrated task cost (internal/experiments.expMRConfig,
// which is unexported).
func mrOptions(nodes, racks int, seed int64) core.Options {
	return core.Options{
		Nodes: nodes,
		Racks: racks,
		Seed:  seed,
		HDFS:  mrHDFS,
		MR: mrcluster.Config{
			MapWork:     cluster.CPUWork{Startup: 100 * time.Millisecond, PerByte: 10, PerRecord: 1000},
			ReduceWork:  cluster.CPUWork{Startup: 100 * time.Millisecond, PerByte: 8, PerRecord: 800},
			CombineWork: cluster.CPUWork{PerRecord: 150},
		},
	}
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// lineHashSum is an order-independent digest of a text's lines: the sum
// (mod 2^64) of each line's hash, and the line count.
func lineHashSum(text string) (sum uint64, lines int) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		sum += hashString(line)
		lines++
	}
	return sum, lines
}

// mrExact reads the exact per-layer counts of one MapReduce iteration off
// the cluster's public counters and the job report.
func mrExact(c *core.MiniCluster, rep *mrcluster.Report, events uint64) map[string]float64 {
	cv := func(name string) float64 { return float64(c.Obs.CounterValue(name)) }
	ratio := func(num float64, all ...float64) float64 {
		var total float64
		for _, x := range all {
			total += x
		}
		if total == 0 {
			return 0
		}
		return num / total
	}
	m := map[string]float64{
		"sim.events":                float64(events),
		"hdfs.nn_heartbeats":        cv(hdfs.MetricNNHeartbeats),
		"hdfs.bytes_written":        cv(hdfs.MetricDNBytesWritten),
		"hdfs.blocks_written":       cv(hdfs.MetricDNBlocksWritten),
		"hdfs.local_read_ratio":     ratio(cv(hdfs.MetricClientReadsLocal), cv(hdfs.MetricClientReadsLocal), cv(hdfs.MetricClientReadsRack), cv(hdfs.MetricClientReadsRemote)),
		"mrcluster.schedule_passes": cv(mrcluster.MetricJTSchedulePasses),
		"mrcluster.maps_launched":   cv(mrcluster.MetricJTMapsLaunched),
		"mrcluster.data_local_ratio": ratio(cv(mrcluster.MetricJTMapsDataLocal),
			cv(mrcluster.MetricJTMapsDataLocal), cv(mrcluster.MetricJTMapsRackLocal), cv(mrcluster.MetricJTMapsRemote)),
		"obs.spans": float64(len(c.Obs.Spans())),
	}
	if rep != nil {
		m["mrcluster.sim_map_phase_s"] = rep.MapPhase().Seconds()
		m["mrcluster.sim_reduce_phase_s"] = rep.ReducePhase().Seconds()
		m["mapreduce.map_output_records"] = float64(rep.Counters.Get(mapreduce.CtrMapOutputRecords))
		m["mapreduce.shuffle_bytes"] = float64(rep.ShuffleBytes())
	}
	return m
}

// --- wc-combiner and terasort: stage, run a job, read the output back ---

// mrJob is a stage → run → read-back workload over one input file.
type mrJob struct {
	seed    int64
	data    []byte
	path    string
	records int
	// build makes the job against fs (TeraSort samples its input there).
	build func(fs vfs.FileSystem) (*mapreduce.Job, error)
	// check compares the job's concatenated output with the oracle and
	// returns how many checks it made and which failed.
	check func(output string) (attempted int, failures []string)

	// per-iteration state
	traceOff bool
	c        *core.MiniCluster
	rep      *mrcluster.Report
	output   string
}

func (w *mrJob) prepare(rec *recorder, traceOff bool) error {
	w.traceOff = traceOff
	w.c, w.rep, w.output = nil, nil, ""
	return nil
}

func (w *mrJob) run(rec *recorder) error {
	err := rec.do("core.new", func() (err error) {
		w.c, err = core.New(mrOptions(16, 2, w.seed))
		return err
	})
	if err != nil {
		return err
	}
	if w.traceOff {
		w.c.Obs.SetTraceSampling(1 << 30)
	}
	// Staged through the gateway client, as `hadoop fs -put` does.
	if err := rec.do("hdfs.stage", func() error { return vfs.WriteFile(w.c.FS(), w.path, w.data) }); err != nil {
		return err
	}
	var job *mapreduce.Job
	err = rec.do("jobs.build", func() (err error) {
		job, err = w.build(w.c.FS())
		return err
	})
	if err != nil {
		return err
	}
	err = rec.do("mrcluster.run", func() (err error) {
		w.rep, err = w.c.Run(job)
		return err
	})
	if err != nil {
		return err
	}
	return rec.do("hdfs.readback", func() (err error) {
		w.output, err = w.c.Output(outputDir)
		return err
	})
}

func (w *mrJob) verify() (iterStats, error) {
	st := iterStats{
		simS:   w.rep.Makespan().Seconds(),
		work:   float64(w.records),
		digest: hashString(w.output),
		exact:  mrExact(w.c, w.rep, w.c.Engine.Processed),
	}
	st.attempted, st.failures = w.check(w.output)
	st.attempted++ // the job itself
	if w.rep.Failed {
		st.failures = append(st.failures, fmt.Sprintf("job failed: %v", w.rep.Err))
	}
	st.failed = len(st.failures)
	return st, nil
}

func setupWordCount(seed int64, scale float64) (instance, error) {
	mem := vfs.NewMemFS()
	path := inputDir + "/corpus.txt"
	lines := scaled(600000, scale, 2000)
	truth, _, err := datagen.Text(mem, path, datagen.TextOpts{Lines: lines, Seed: seed})
	if err != nil {
		return nil, err
	}
	data, err := vfs.ReadFile(mem, path)
	if err != nil {
		return nil, err
	}
	return &mrJob{
		seed: seed, data: data, path: path, records: lines,
		build: func(vfs.FileSystem) (*mapreduce.Job, error) {
			return jobs.WordCount(inputDir, outputDir, true), nil
		},
		check: func(output string) (int, []string) { return checkWordCounts(output, truth.Counts) },
	}, nil
}

// checkWordCounts requires the "word<TAB>count" lines of output to equal
// want exactly: one check per expected word plus one for strays.
func checkWordCounts(output string, want map[string]int64) (int, []string) {
	var failures []string
	got := map[string]int64{}
	for _, line := range strings.Split(output, "\n") {
		if line == "" {
			continue
		}
		word, count, ok := strings.Cut(line, "\t")
		n, err := strconv.ParseInt(count, 10, 64)
		if !ok || err != nil {
			failures = append(failures, fmt.Sprintf("malformed output line %q", line))
			continue
		}
		got[word] += n
	}
	for word, n := range want {
		if got[word] != n {
			failures = append(failures, fmt.Sprintf("count[%s] = %d, want %d", word, got[word], n))
		}
	}
	if len(got) > len(want) {
		failures = append(failures, fmt.Sprintf("%d words in the output are not in the corpus", len(got)-len(want)))
	}
	return len(want) + 1, failures
}

func setupTeraSort(seed int64, scale float64) (instance, error) {
	mem := vfs.NewMemFS()
	path := inputDir + "/rows.txt"
	rows, _, err := datagen.Sortable(mem, path, datagen.SortableOpts{Rows: scaled(300000, scale, 2000), Seed: seed})
	if err != nil {
		return nil, err
	}
	data, err := vfs.ReadFile(mem, path)
	if err != nil {
		return nil, err
	}
	wantSum, wantLines := lineHashSum(string(data))
	if wantLines != rows {
		return nil, fmt.Errorf("terasort: generated %d lines for %d rows", wantLines, rows)
	}
	return &mrJob{
		seed: seed, data: data, path: path, records: rows,
		build: func(fs vfs.FileSystem) (*mapreduce.Job, error) {
			return jobs.TeraSort(fs, inputDir, outputDir, 8)
		},
		check: func(output string) (int, []string) {
			var failures []string
			n, err := jobs.ValidateSorted(output)
			if err != nil {
				failures = append(failures, err.Error())
			}
			if n != rows {
				failures = append(failures, fmt.Sprintf("output has %d rows, want %d", n, rows))
			}
			if sum, _ := lineHashSum(output); sum != wantSum {
				failures = append(failures, "output rows are not a permutation of the input rows")
			}
			return 3, failures
		},
	}, nil
}

// --- idle-cluster: a warmed 64-node cluster doing nothing for 12 h ---

const idleNodes, idleRacks = 64, 4

type idleCluster struct {
	seed int64
	data []byte
	idle time.Duration

	c      *core.MiniCluster
	before uint64 // Engine.Processed when the timed region starts
	hb0    int64  // NameNode heartbeats when the timed region starts
}

func setupIdleCluster(seed int64, scale float64) (instance, error) {
	mem := vfs.NewMemFS()
	path := inputDir + "/corpus.txt"
	if _, _, err := datagen.Text(mem, path, datagen.TextOpts{Lines: 2000, Seed: seed}); err != nil {
		return nil, err
	}
	data, err := vfs.ReadFile(mem, path)
	if err != nil {
		return nil, err
	}
	idle := time.Duration(float64(12*time.Hour) * scale)
	return &idleCluster{seed: seed, data: data, idle: idle}, nil
}

// prepare builds the cluster and runs one small job so the NameNode and
// JobTracker carry the state a used cluster has.
func (w *idleCluster) prepare(rec *recorder, traceOff bool) error {
	err := rec.do("core.new", func() (err error) {
		w.c, err = core.New(mrOptions(idleNodes, idleRacks, w.seed))
		return err
	})
	if err != nil {
		return err
	}
	if traceOff {
		w.c.Obs.SetTraceSampling(1 << 30)
	}
	if err := vfs.WriteFile(w.c.FS(), inputDir+"/corpus.txt", w.data); err != nil {
		return err
	}
	rep, err := w.c.Run(jobs.WordCount(inputDir, outputDir, true))
	if err != nil {
		return err
	}
	if rep.Failed {
		return fmt.Errorf("warming job failed: %v", rep.Err)
	}
	w.before = w.c.Engine.Processed
	w.hb0 = w.c.Obs.CounterValue(hdfs.MetricNNHeartbeats)
	return nil
}

func (w *idleCluster) run(rec *recorder) error {
	w.c.Engine.Advance(w.idle)
	return nil
}

func (w *idleCluster) verify() (iterStats, error) {
	events := w.c.Engine.Processed - w.before
	st := iterStats{
		simS:      w.idle.Seconds(),
		work:      float64(events),
		attempted: 3,
		exact:     mrExact(w.c, nil, events),
	}
	st.exact["hdfs.nn_heartbeats"] -= float64(w.hb0)
	if live := len(w.c.DFS.NN.LiveDataNodes()); live != idleNodes {
		st.failures = append(st.failures, fmt.Sprintf("%d live DataNodes, want %d", live, idleNodes))
	}
	if dead := w.c.Obs.CounterValue(hdfs.MetricNNDataNodesDeclaredDead); dead != 0 {
		st.failures = append(st.failures, fmt.Sprintf("%d DataNodes declared dead", dead))
	}
	fsck, err := w.c.Fsck()
	if err != nil {
		return st, err
	}
	if !fsck.Healthy() || fsck.UnderReplicated != 0 || fsck.CorruptReplicas != 0 {
		st.failures = append(st.failures, "fsck: "+fsck.Status())
	}
	st.failed = len(st.failures)
	st.digest = hashString(fsck.String())
	return st, nil
}
