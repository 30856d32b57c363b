package regionserver

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func newTestCluster(t *testing.T, servers int, opts Options) (*Cluster, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	return newClusterOn(t, eng, vfs.NewMemFS(), servers, opts), eng
}

// newClusterOn builds a cluster of `servers` region servers persisting
// through fs, stopped when the test or benchmark ends.
func newClusterOn(tb testing.TB, eng *sim.Engine, fs vfs.FileSystem, servers int, opts Options) *Cluster {
	tb.Helper()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(servers+1, 1))
	opts.Servers = servers
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	c, err := New(eng, fs, topo, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Stop)
	return c
}

func TestServeBasicOps(t *testing.T) {
	c, eng := newTestCluster(t, 4, Options{})
	if err := c.Master.CreateTable("t", []string{"g", "n", "t"}); err != nil {
		t.Fatal(err)
	}
	regions, _ := c.Master.Regions("t")
	if len(regions) != 4 {
		t.Fatalf("%d regions, want 4", len(regions))
	}
	if err := c.Master.CheckMeta(); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient()
	now := eng.Now()
	for _, k := range []string{"alpha", "golf", "mike", "november", "zulu"} {
		done, err := cl.Put(now, "t", k, []byte("v-"+k))
		if err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		now = done
	}
	v, now, err := cl.Get(now, "t", "november")
	if err != nil || string(v) != "v-november" {
		t.Fatalf("get november = %q, %v", v, err)
	}
	if _, _, err := cl.Get(now, "t", "missing"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("missing row: %v", err)
	}
	// Cross-region scan stitches all four regions.
	kvs, now, err := cl.Scan(now, "t", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 5 {
		t.Fatalf("scan returned %d rows, want 5", len(kvs))
	}
	for i := 1; i < len(kvs); i++ {
		if kvs[i-1].Key >= kvs[i].Key {
			t.Fatalf("scan out of order: %s >= %s", kvs[i-1].Key, kvs[i].Key)
		}
	}
	// Bounded scan honors the limit across region boundaries.
	kvs, _, err = cl.Scan(now, "t", "a", "", 3)
	if err != nil || len(kvs) != 3 {
		t.Fatalf("limited scan: %d rows, %v", len(kvs), err)
	}
	if done, err := cl.Delete(eng.Now(), "t", "alpha"); err != nil {
		t.Fatal(err)
	} else if _, _, err := cl.Get(done, "t", "alpha"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("deleted row: %v", err)
	}
}

func TestServerQueueingAddsLatency(t *testing.T) {
	c, eng := newTestCluster(t, 1, Options{})
	if err := c.Master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient()
	now := eng.Now()
	// Two reads arriving at the same instant: the second queues behind
	// the first on the single server.
	cl.Put(now, "t", "k", []byte("v"))
	_, d1, err := cl.Get(now, "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := cl.Get(now, "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Fatalf("no queueing: first done %v, second done %v", d1, d2)
	}
}

func TestHotRegionSplits(t *testing.T) {
	reg := obs.NewRegistry()
	c, eng := newTestCluster(t, 2, Options{
		Obs:           reg,
		SplitMaxOps:   1 << 30, // only the size trigger
		SplitMaxBytes: 4 << 10,
	})
	if err := c.Master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient()
	now := eng.Now()
	for i := 0; i < 200; i++ {
		done, err := cl.Put(now, "t", fmt.Sprintf("row%04d", i), bytes.Repeat([]byte("x"), 64))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		now = done
		// Let the deferred split request fire between ops.
		eng.RunUntil(now)
	}
	if got := reg.CounterValue(MetricSplits); got == 0 {
		t.Fatal("no splits fired")
	}
	regions, _ := c.Master.Regions("t")
	if len(regions) < 2 {
		t.Fatalf("%d regions after splits", len(regions))
	}
	if err := c.Master.CheckMeta(); err != nil {
		t.Fatal(err)
	}
	// Both servers ended up hosting something.
	for _, s := range c.Master.Servers() {
		if s.RegionCount() == 0 {
			t.Fatalf("%s hosts nothing after splits", s.Name())
		}
	}
	// All rows still readable through the moves, stale locations healed
	// by the NotServing retry path.
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("row%04d", i)
		v, done, err := cl.Get(now, "t", k)
		if err != nil || len(v) != 64 {
			t.Fatalf("get %s after splits: %v", k, err)
		}
		now = done
	}
	// Scan sees every row exactly once across the new region map.
	kvs, _, err := cl.Scan(now, "t", "", "", 0)
	if err != nil || len(kvs) != 200 {
		t.Fatalf("scan after splits: %d rows, %v", len(kvs), err)
	}
}

func TestMergeAdjacentColdRegions(t *testing.T) {
	reg := obs.NewRegistry()
	c, eng := newTestCluster(t, 2, Options{Obs: reg})
	if err := c.Master.CreateTable("t", []string{"m"}); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient()
	now := eng.Now()
	for _, k := range []string{"a", "b", "x", "y"} {
		done, err := cl.Put(now, "t", k, []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	c.Master.ResetLoadWindows() // everything cold
	merged, err := c.Master.MergeAdjacent("t", 1<<20)
	if err != nil || !merged {
		t.Fatalf("merge: %v %v", merged, err)
	}
	regions, _ := c.Master.Regions("t")
	if len(regions) != 1 {
		t.Fatalf("%d regions after merge, want 1", len(regions))
	}
	if err := c.Master.CheckMeta(); err != nil {
		t.Fatal(err)
	}
	kvs, _, err := cl.Scan(now, "t", "", "", 0)
	if err != nil || len(kvs) != 4 {
		t.Fatalf("scan after merge: %d rows, %v", len(kvs), err)
	}
	if reg.CounterValue(MetricMerges) != 1 {
		t.Fatal("merge counter not bumped")
	}
}

func TestCrashRecoveryReassignsWithWALReplay(t *testing.T) {
	reg := obs.NewRegistry()
	c, eng := newTestCluster(t, 3, Options{Obs: reg})
	if err := c.Master.CreateTable("t", []string{"h", "p"}); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient()
	now := eng.Now()
	model := map[string]string{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key%02d", i)
		v := fmt.Sprintf("v%d", i)
		done, err := cl.Put(now, "t", k, []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		model[k] = v
		now = done
	}
	// Kill the server hosting the written keys' region: its MemStores
	// die with it; the WALs survive on the shared filesystem.
	regions, _ := c.Master.Regions("t")
	i := locateIndex(regions, "key00")
	if i < 0 {
		t.Fatal("no region for key00")
	}
	hot := regions[i]
	victim := c.Master.Server(hot.Srv)
	if !c.CrashServerOn(victim.Node()) {
		t.Fatal("crash did not land")
	}
	// Reads against the dead server fail until the master reassigns.
	if _, _, err := cl.Get(eng.Now(), "t", "key00"); !errors.Is(err, ErrServerDown) {
		t.Fatalf("read against dead server: %v", err)
	}
	eng.Advance(5 * time.Second) // heartbeat expiry + replay
	if reg.CounterValue(MetricReassigns) == 0 {
		t.Fatal("no reassignment happened")
	}
	regions, _ = c.Master.Regions("t")
	for _, r := range regions {
		if r.Srv == victim.Name() {
			t.Fatalf("region %s still on the dead server", r.ID)
		}
	}
	// Every acknowledged write is back, served by the new owners after
	// WAL replay.
	now = eng.Now()
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key%02d", i)
		v, done, err := cl.Get(now, "t", k)
		if err != nil || string(v) != model[k] {
			t.Fatalf("after recovery, %s = %q, %v", k, v, err)
		}
		now = done
	}
	if reg.CounterValue(kvstore.MetricWALReplayed) == 0 {
		t.Fatal("recovery did not replay any WAL records")
	}
	start, end, n := c.Master.LastRecovery()
	if n == 0 || end <= start {
		t.Fatalf("recovery window not recorded: %v..%v n=%d", start, end, n)
	}
	// Restart: the server rejoins empty and the master logs it.
	if !c.RestartServerOn(victim.Node()) {
		t.Fatal("restart did not land")
	}
	eng.Advance(time.Second)
	found := false
	for _, ev := range mustEvents(t, c) {
		if ev.Type == EvServerJoin && ev.Attrs.Get("server") == victim.Name() {
			found = true
		}
	}
	if !found {
		t.Fatal("no server.join event after restart")
	}
}

// TestDarkRegionsAreReassignedLater: a region whose server stops serving
// it is reassigned on a later heartbeat, not only in the one pass that
// declares the server dead — when that pass found no live server (the
// only one crashed, then restarted), and when the server was never
// declared dead (it restarted inside the expiry, empty).
func TestDarkRegionsAreReassignedLater(t *testing.T) {
	for _, tc := range []struct {
		name        string
		servers     int
		down, after time.Duration
	}{
		{"only server restarted after it was declared dead", 1, 5 * time.Second, time.Second},
		{"server restarted inside the expiry", 2, time.Second, 5 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, eng := newTestCluster(t, tc.servers, Options{})
			if err := c.Master.CreateTable("t", []string{"m"}); err != nil {
				t.Fatal(err)
			}
			cl := c.NewClient()
			keys := []string{"a", "z"}
			for _, k := range keys {
				if _, err := cl.Put(eng.Now(), "t", k, []byte("v-"+k)); err != nil {
					t.Fatal(err)
				}
			}
			victim := c.Master.Servers()[0]
			if !c.CrashServerOn(victim.Node()) {
				t.Fatal("crash did not land")
			}
			eng.Advance(tc.down)
			if !c.RestartServerOn(victim.Node()) {
				t.Fatal("restart did not land")
			}
			eng.Advance(tc.after)
			for _, k := range keys {
				if v, _, err := cl.Get(eng.Now(), "t", k); err != nil || string(v) != "v-"+k {
					t.Fatalf("get %s = %q, %v; want %q", k, v, err, "v-"+k)
				}
			}
			checkStorage(t, c, "t")
		})
	}
}

func mustEvents(t *testing.T, c *Cluster) []history.Event {
	t.Helper()
	data, err := c.Master.MetaLogBytes()
	if err != nil {
		t.Fatal(err)
	}
	evs, err := history.Parse[history.Event](data)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestCacheTierHitsAndCoherence(t *testing.T) {
	reg := obs.NewRegistry()
	c, eng := newTestCluster(t, 2, Options{Obs: reg})
	if err := c.Master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	const shards = 4
	cl := c.NewCachedClient(shards, 8)
	now := eng.Now()
	done, err := cl.Put(now, "t", "k", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	// First read misses and fills; second hits.
	_, done, err = cl.Get(done, "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	v, hitDone, err := cl.Get(done, "t", "k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("cached read: %q %v", v, err)
	}
	if hitDone-done >= cost.ServerRead {
		t.Fatalf("cache hit took a server read: %v", hitDone-done)
	}
	if reg.CounterValue(MetricCacheHits) != 1 || reg.CounterValue(MetricCacheMisses) != 1 {
		t.Fatalf("hits=%d misses=%d", reg.CounterValue(MetricCacheHits), reg.CounterValue(MetricCacheMisses))
	}
	// Write-invalidate: the next read sees the new value, via the server.
	done, err = cl.Put(hitDone, "t", "k", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	v, _, err = cl.Get(done, "t", "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("after invalidate: %q %v", v, err)
	}
	if reg.CounterValue(MetricCacheInval) != 1 {
		t.Fatal("invalidate counter not bumped")
	}
	// Per-shard counters landed too.
	total := int64(0)
	for i := 0; i < shards; i++ {
		total += reg.CounterValue(fmt.Sprintf("serving.cache.s%02d.hits", i))
	}
	if total != reg.CounterValue(MetricCacheHits) {
		t.Fatalf("per-shard hits %d != aggregate %d", total, reg.CounterValue(MetricCacheHits))
	}
	// Eviction under capacity pressure (4 shards × 8 entries = 32 max).
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("fill%03d", i)
		d, err := cl.Put(eng.Now(), "t", k, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(d, "t", k); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Cache().Len(); got > 32 {
		t.Fatalf("cache holds %d entries, cap 32", got)
	}
	if reg.CounterValue(MetricCacheEvict) == 0 {
		t.Fatal("no evictions under pressure")
	}
}

// TestSplitMergeDeterminism is the satellite determinism gate: the same
// seed must produce a byte-identical META log through create, splits,
// crash reassignment, and merges.
func TestSplitMergeDeterminism(t *testing.T) {
	run := func(seed int64) []byte {
		res, err := BenchRun(BenchOpts{
			Mix: "a", Records: 800, Ops: 3000, Clients: 16, Servers: 3,
			PreSplit: 4, Seed: seed, Crash: true, CrashAt: 300 * time.Millisecond,
			SplitMaxOps: 600,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Splits == 0 {
			t.Fatal("determinism run produced no splits")
		}
		if res.Reassigns == 0 {
			t.Fatal("determinism run produced no reassignments")
		}
		return res.MetaLog
	}
	for _, seed := range []int64{1, 42} {
		a, b := run(seed), run(seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: META logs differ:\n--- run1\n%s\n--- run2\n%s", seed, a, b)
		}
	}
	if bytes.Equal(run(1), run(2)) {
		t.Fatal("different seeds produced identical META logs — seed not threaded")
	}
}

// TestMergeDeterminism drives an explicit split-then-merge cycle twice
// and compares META logs byte for byte.
func TestMergeDeterminism(t *testing.T) {
	run := func() []byte {
		reg := obs.NewRegistry()
		c, eng := newTestCluster(t, 2, Options{
			Obs: reg, SplitMaxOps: 1 << 30, SplitMaxBytes: 4 << 10,
		})
		if err := c.Master.CreateTable("t", nil); err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient()
		now := eng.Now()
		for i := 0; i < 150; i++ {
			done, err := cl.Put(now, "t", fmt.Sprintf("row%04d", i), bytes.Repeat([]byte("x"), 64))
			if err != nil {
				t.Fatal(err)
			}
			now = done
			eng.RunUntil(now)
		}
		c.Master.ResetLoadWindows()
		for {
			merged, err := c.Master.MergeAdjacent("t", 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			if !merged {
				break
			}
		}
		if err := c.Master.CheckMeta(); err != nil {
			t.Fatal(err)
		}
		data, err := c.Master.MetaLogBytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("split+merge META logs differ:\n--- run1\n%s\n--- run2\n%s", a, b)
	}
}

func TestBenchRunRecoversAckedWrites(t *testing.T) {
	res, err := BenchRun(BenchOpts{
		Mix: "a", Records: 600, Ops: 2400, Clients: 16, Servers: 4,
		PreSplit: 4, Seed: 7, Crash: true, CrashAt: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reassigns == 0 {
		t.Fatal("crash run did not reassign any regions")
	}
	if res.LostAckedWrites != 0 {
		t.Fatalf("%d acknowledged writes lost (verified %d)", res.LostAckedWrites, res.VerifiedWrites)
	}
	if res.VerifiedWrites == 0 {
		t.Fatal("nothing verified — workload produced no acked writes?")
	}
	if res.RecoverySeconds <= 0 {
		t.Fatalf("recovery window %v", res.RecoverySeconds)
	}
	if res.Errors > res.Ops/10 {
		t.Fatalf("%d/%d ops failed outright; retries should have ridden out recovery", res.Errors, res.Ops)
	}
	if res.FaultLog == "" {
		t.Fatal("no fault-injector log recorded")
	}
}

func TestCacheSpeedsUpReadHeavy(t *testing.T) {
	base := BenchOpts{Mix: "c", Records: 1000, Ops: 4000, Clients: 16, Servers: 4, PreSplit: 4, Seed: 3}
	withOpts := base
	withOpts.Cache = true
	without, err := BenchRun(base)
	if err != nil {
		t.Fatal(err)
	}
	with, err := BenchRun(withOpts)
	if err != nil {
		t.Fatal(err)
	}
	if with.CacheHitRate <= 0.3 {
		t.Fatalf("cache hit rate %.2f too low for zipf reads", with.CacheHitRate)
	}
	if with.OpsPerSec <= without.OpsPerSec {
		t.Fatalf("cache did not speed up workload C: %.0f vs %.0f ops/s", with.OpsPerSec, without.OpsPerSec)
	}
}

func TestWorkloadMixesRun(t *testing.T) {
	for _, mix := range []string{"b", "e", "f"} {
		res, err := BenchRun(BenchOpts{
			Mix: mix, Records: 500, Ops: 1500, Clients: 8, Servers: 4, PreSplit: 4, Seed: 5,
		})
		if err != nil {
			t.Fatalf("mix %s: %v", mix, err)
		}
		if res.Errors > 0 {
			t.Fatalf("mix %s: %d errors", mix, res.Errors)
		}
		if res.Ops != 1500 {
			t.Fatalf("mix %s: %d ops completed", mix, res.Ops)
		}
		if res.OpsPerSec <= 0 || res.P99 <= 0 || res.P50 > res.P99 || res.P99 > res.P999 {
			t.Fatalf("mix %s: bad stats %+v", mix, res.WorkloadResult)
		}
	}
}
