// Command bench is the wall-clock benchmark of the teaching stack: six
// fixed workloads driven through the public API of each layer, timed on
// the host clock, checked against independent oracles, with a traced run
// that attributes the time to layers. See README.md.
//
//	bash bench/run.sh                                  # every workload
//	bash bench/run.sh --workload kv-read --seed 7 --seconds 10 --trace 1
//	bash bench/run.sh -compare bench/out/baseline-a.json bench/out/baseline-b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// workloads in the order they are reported. The `why` strings are the
// ones BENCHMARK.json carries.
var workloads = []workload{
	{"wc-combiner", "FIG1's data-local WordCount without its datagen: map-side CPU (user map fn, sort, combiner) and ~1.8 GB of allocation dominate; shuffle is tiny and the event queue idle", setupWordCount},
	{"terasort", "same layers used the other way round: identity map, no combiner, the whole dataset through shuffle, merge, reduce and a 3-replica HDFS write of the output", setupTeraSort},
	{"idle-cluster", "E6's profile without its noise: 64 idle nodes for 12 sim hours, 1.9 M heartbeat events and zero data, so only sim and the heartbeat handlers work", setupIdleCluster},
	{"yarn-trace", "E12's capacity arm at 2x (2400 apps): backlog scan, preemption monitor and autoscaler dominate; the only workload where yarn does the work", setupYarnTrace},
	{"kv-read", "400 k YCSB-C reads, plain client: routing, epoch check and kvstore.Get on flushed files; no WAL, no cache tier; 400 k events so it feels the sim queue too", setupKV("c", 400000, false)},
	{"kv-update", "100 k YCSB-A ops (50 % update) through a cache far smaller than the table: WAL append, flush, compaction, size splits and invalidate-on-write beside the read path", setupKV("a", 100000, true)},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	Results    map[string]*result `json:"results"`
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// mergeInto adds res to the result set at path, creating the file if
// needed, so the per-workload processes of one full run share one file.
func mergeInto(path string, res *result) error {
	rs, err := readResultSet(path)
	if errors.Is(err, os.ErrNotExist) {
		rs, err = &resultSet{}, nil
	}
	if err != nil {
		return err
	}
	if rs.Results == nil {
		rs.Results = map[string]*result{}
	}
	rs.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rs.Results[res.Workload] = res
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// smokeConfig shrinks cfg to ~1 % size, one iteration, no warm-up.
func smokeConfig(cfg config) config {
	cfg.scale, cfg.n, cfg.warmup = 0.01, 1, 0
	return cfg
}

// printResult writes the human-readable report of one workload.
func printResult(res *result) {
	fmt.Printf("workload=%s seed=%d gomaxprocs=%d N=%d attempted=%d failed=%d digest=%s\n",
		res.Workload, res.Seed, runtime.GOMAXPROCS(0), res.Iterations, res.Attempted, res.Failed, res.Digest)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Printf("  %-34s %16.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
}

// contractLine is the one-line JSON summary the benchmark driver reads:
// the end-to-end metrics of a plain run, the per-layer metrics of a
// traced one (a layer the workload does not touch reads 0).
func contractLine(res *result, trace bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.name] = mv{res.Metrics[d.name].Value, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload, one process each)")
		seed    = flag.Int64("seed", 1234, "the only workload input: every dataset is generated from it")
		seconds = flag.Float64("seconds", 12, "measuring window per workload, warm-up included")
		trace   = flag.Int("trace", 0, "1 adds the traced run and the probes, and writes bench/out/<workload>.trace.jsonl")
		smoke   = flag.Bool("smoke", false, "each workload at ~1% size, one iteration")
		out     = flag.String("out", "", "merge the results into this JSON file (the input of -compare)")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("usage: bench -compare a.json b.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	if *name == "" {
		// One process per workload, so peak_rss_mb belongs to the workload.
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		for _, w := range workloads {
			cmd := exec.Command(exe, append(os.Args[1:], "-workload", w.name)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
		return nil
	}

	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q; run without -workload for all of them", *name)
	}
	cfg := config{seed: *seed, seconds: *seconds, warmup: 2, scale: 1, trace: *trace != 0, outDir: "bench/out"}
	if *smoke {
		cfg = smokeConfig(cfg)
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	printResult(res)
	if *out != "" {
		if err := mergeInto(*out, res); err != nil {
			return err
		}
	}
	line, err := contractLine(res, cfg.trace)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func main() {
	// The engine is single-threaded by contract; the extra procs serve the
	// garbage collector. Capped so a big box does not measure a different
	// collector from the teaching boxes.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, errWorse) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}
