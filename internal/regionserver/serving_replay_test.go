package regionserver

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/digesttest"
	"repro/internal/kvstore"
	"repro/internal/obs"
)

// TestServingReplay pins the serving tier on E13's seeds — the full-scale
// crash scenario at 1234, and 7 and 99 at E13's small scale over mixes
// a / c / e / f, plain and cached, plus the small crash scenario and a
// scripted split-then-merge cycle — with two digests per scenario in
// testdata/serving_replay.sha256:
//
//   - state: every row of the final table, scanned through a cache-free
//     client, the acknowledged writes and the META check. What the tier
//     stores; no edit to how it serves or splits may move it.
//   - schedule: the META log and the run's op count, makespan and
//     latency percentiles. When everything happened on the sim clock; it
//     moves only with a change to what a split or a merge costs.
//
// The small scenarios split at 300 ops, so that the op trigger fires at
// that scale, and two larger ones split by size alone. The file was
// recorded at 3718d53, before the read path and the split were rewritten.
// The read-path commit moved no line. The commit that made splits and
// merges take references re-recorded the 14 schedule lines of the write
// mixes (a, f, the size splits, the crash scenarios, the merge cycle) —
// a daughter's size is its share of the parent's files, so the next
// flush, compaction and split cost land elsewhere on the sim clock — and
// no state line. Every scenario also ends in checkStorage.
func TestServingReplay(t *testing.T) {
	pinned := digesttest.Read(t, "testdata/serving_replay.sha256")
	ran, splits, sizeSplitRuns, reassigns := 0, 0, 0, 0
	run := func(name string, o BenchOpts) {
		t.Run(name, func(t *testing.T) {
			res, c, err := benchRun(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors > 0 || res.LostAckedWrites > 0 {
				t.Fatalf("%d ops failed, %d acked writes lost", res.Errors, res.LostAckedWrites)
			}
			checkStorage(t, c, BenchTable)
			ran++
			splits += res.Splits
			reassigns += res.Reassigns
			t.Logf("%d splits, %d flushes, %d compactions", res.Splits,
				c.Obs.CounterValue(kvstore.MetricFlushes), c.Obs.CounterValue(kvstore.MetricCompactions))
			if o.SplitMaxOps > o.Ops && res.Splits > 0 {
				sizeSplitRuns++
			}
			acked := make([]string, 0, len(res.Acked))
			for k, v := range res.Acked {
				acked = append(acked, k+"="+v)
			}
			sort.Strings(acked)
			digesttest.Assert(t, pinned, name+"/state", tableState(t, c, BenchTable), []byte(fmt.Sprint(acked)))
			digesttest.Assert(t, pinned, name+"/schedule", res.MetaLog,
				[]byte(fmt.Sprint(res.Ops, res.Makespan, res.P50, res.P99, res.P999)))
		})
	}

	if !testing.Short() {
		run("seed1234-a-cached-crash", BenchOpts{Mix: "a", Cache: true, Crash: true, Seed: 1234})
	}
	for _, seed := range []int64{7, 99} {
		small := BenchOpts{Records: 600, Ops: 1800, Clients: 16, Servers: 4, Seed: seed,
			SplitMaxOps: 300}
		for _, mix := range []string{"a", "c", "e", "f"} {
			for _, cached := range []bool{false, true} {
				o := small
				o.Mix, o.Cache = mix, cached
				name := fmt.Sprintf("seed%d-%s-plain", seed, mix)
				if cached {
					name = fmt.Sprintf("seed%d-%s-cached", seed, mix)
				}
				run(name, o)
			}
		}
		crash := small
		crash.Mix, crash.Cache, crash.Crash, crash.CrashAt = "a", true, true, 200*time.Millisecond
		run(fmt.Sprintf("seed%d-a-cached-crash", seed), crash)
		// The size trigger alone, on regions large enough to flush and
		// compact between splits (BenchRun flushes at 32 KiB).
		run(fmt.Sprintf("seed%d-a-plain-sizesplit", seed), BenchOpts{Mix: "a", Records: 3000, Ops: 8000,
			Clients: 16, Servers: 4, PreSplit: 2, Seed: seed, SplitMaxOps: 1 << 30, SplitMaxBytes: 200 << 10})
	}
	t.Run("split-merge", func(t *testing.T) {
		c, metaLog := splitMergeCycle(t)
		checkStorage(t, c, "t")
		digesttest.Assert(t, pinned, "split-merge/state", tableState(t, c, "t"))
		digesttest.Assert(t, pinned, "split-merge/schedule", metaLog)
	})

	// Keep the scenarios honest: they exist for the splits and the crash.
	// (Only a full run can tell: -short and -run leave scenarios out.)
	if ran == 21 && (splits < 60 || sizeSplitRuns < 2 || reassigns < 6) {
		t.Errorf("scenarios reached %d splits, %d size-split runs, %d reassignments", splits, sizeSplitRuns, reassigns)
	}
}

// tableState renders every row of the table as a cache-free client scans
// it, then the META check.
func tableState(t *testing.T, c *Cluster, table string) []byte {
	t.Helper()
	kvs, _, err := c.NewClient().Scan(c.Eng.Now(), table, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, kv := range kvs {
		fmt.Fprintf(&b, "%q=%q\n", kv.Key, kv.Value)
	}
	fmt.Fprintf(&b, "rows=%d meta=%v\n", len(kvs), c.Master.CheckMeta())
	return b.Bytes()
}

// splitMergeCycle grows one region through size splits — with overwrites
// and deletes under a 1 KiB flush threshold, so a region flushes and
// compacts between splits and daughters carry several versions and
// tombstones — merges cold neighbours until none is left, and writes on
// into the merged regions.
func splitMergeCycle(t *testing.T) (*Cluster, []byte) {
	t.Helper()
	c, eng := newTestCluster(t, 2, Options{
		Obs: obs.NewRegistry(), SplitMaxOps: 1 << 30, SplitMaxBytes: 6 << 10,
		KV: kvstore.Config{FlushThresholdBytes: 1 << 10, CompactTrigger: 3},
	})
	if err := c.Master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient()
	now := eng.Now()
	step := func(done time.Duration, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		now = done
		eng.RunUntil(now) // let a deferred split request fire between ops
	}
	write := func(from, to int) {
		for i := from; i < to; i++ {
			step(cl.Put(now, "t", fmt.Sprintf("row%04d", i%160), bytes.Repeat([]byte{'a' + byte(i%26)}, 64)))
			if i%9 == 0 {
				step(cl.Delete(now, "t", fmt.Sprintf("row%04d", (i*7)%160)))
			}
		}
	}
	write(0, 240)
	splits := c.Obs.CounterValue(MetricSplits)
	c.Master.ResetLoadWindows()
	for merges := 0; ; merges++ {
		merged, err := c.Master.MergeAdjacent("t", 12<<10)
		if err != nil {
			t.Fatal(err)
		}
		if !merged {
			if merges == 0 {
				t.Fatal("the cycle merged nothing")
			}
			break
		}
	}
	write(240, 330)
	t.Logf("%d splits, then %d merges, then %d more splits; %d flushes, %d compactions",
		splits, c.Obs.CounterValue(MetricMerges), c.Obs.CounterValue(MetricSplits)-splits,
		c.Obs.CounterValue(kvstore.MetricFlushes), c.Obs.CounterValue(kvstore.MetricCompactions))
	metaLog, err := c.Master.MetaLogBytes()
	if err != nil {
		t.Fatal(err)
	}
	return c, metaLog
}
