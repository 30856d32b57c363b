package main

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/regionserver"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const (
	kvTable     = "usertable"
	kvValueSize = 100
	kvClients   = 32
	kvServers   = 4
	kvPreSplit  = 8
	kvSampled   = 1000 // untouched keys read back per iteration
)

// kvConfig is the region store tuning both serving workloads (and the
// kvstore probe) use: small flushes and WAL segments, so 20 000 rows
// exercise flush, compaction and split many times.
func kvConfig() kvstore.Config {
	return kvstore.Config{FlushThresholdBytes: 32 << 10, WALSegmentBytes: 16 << 10}
}

// kvServing drives a YCSB mix from 32 closed-loop virtual clients against
// 4 region servers holding a bulk-loaded table.
type kvServing struct {
	seed    int64
	records int
	load    []kvstore.KV
	ops     []datagen.YCSBOp
	cached  bool // front the servers with a 16 × 128-entry cache tier
	// userBytes is what the op stream asks to write: key + value of every
	// update, the denominator of write amplification.
	userBytes float64

	eng  *sim.Engine
	fs   *countingFS
	reg  *obs.Registry
	c    *regionserver.Cluster
	base map[string]int64 // counters when the timed region starts
	res  *regionserver.WorkloadResult
}

// kvCounters are the obs counters whose growth over the timed region the
// exact metrics report.
var kvCounters = []string{
	kvstore.MetricFlushes, kvstore.MetricCompactions, kvstore.MetricFlushBytes,
	kvstore.MetricCompactBytes, kvstore.MetricWALBytes,
	regionserver.MetricCacheHits, regionserver.MetricCacheMisses, regionserver.MetricCacheInval,
	regionserver.MetricSplits, regionserver.MetricMetaRefresh,
}

func setupKV(mix string, ops int, cached bool) func(seed int64, scale float64) (instance, error) {
	return func(seed int64, scale float64) (instance, error) {
		records := scaled(20000, scale, 400)
		stream, err := datagen.YCSB(datagen.YCSBOpts{
			Mix: mix, Records: records, Ops: scaled(ops, scale, 2000), ValueSize: kvValueSize, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		w := &kvServing{seed: seed, records: records, ops: stream, cached: cached}
		for _, op := range stream {
			if op.Value != nil {
				w.userBytes += float64(len(op.Key) + len(op.Value))
			}
		}
		for _, op := range datagen.YCSBLoad(records, kvValueSize) {
			w.load = append(w.load, kvstore.KV{Key: op.Key, Value: op.Value})
		}
		return w, nil
	}
}

func (w *kvServing) prepare(rec *recorder, traceOff bool) error {
	return rec.do("regionserver.setup", func() error {
		w.eng = sim.NewEngine()
		w.fs = &countingFS{FileSystem: vfs.NewMemFS()}
		w.reg = obs.NewRegistry()
		if traceOff {
			w.reg.SetTraceSampling(1 << 30)
		}
		topo := cluster.NewTopology(cluster.PaperNodeConfig(kvServers+1, 1))
		var err error
		w.c, err = regionserver.New(w.eng, w.fs, topo, regionserver.Options{
			Servers:       kvServers,
			Obs:           w.reg,
			SplitMaxOps:   2500,
			SplitMaxBytes: 1 << 20,
			KV:            kvConfig(),
		})
		if err != nil {
			return err
		}
		var splitKeys []string
		for i := 1; i < kvPreSplit; i++ {
			splitKeys = append(splitKeys, datagen.YCSBKey(i*w.records/kvPreSplit))
		}
		if err := w.c.Master.CreateTable(kvTable, splitKeys); err != nil {
			return err
		}
		if err := w.c.Master.BulkLoadTable(kvTable, w.load); err != nil {
			return err
		}
		w.base = map[string]int64{}
		for _, name := range kvCounters {
			w.base[name] = w.reg.CounterValue(name)
		}
		w.fs.bytesWritten, w.fs.filesCreated = 0, 0
		return nil
	})
}

func (w *kvServing) run(rec *recorder) error {
	return rec.do("regionserver.workload", func() error {
		cl := w.c.NewClient()
		if w.cached {
			cl = w.c.NewCachedClient(16, 128)
		}
		w.res = regionserver.RunWorkload(w.eng, cl, kvTable, w.ops, kvClients)
		return nil
	})
}

func (w *kvServing) verify() (iterStats, error) {
	defer w.c.Stop()
	grown := func(name string) float64 { return float64(w.reg.CounterValue(name) - w.base[name]) }
	st := iterStats{
		simS:      w.res.Makespan.Seconds(),
		work:      float64(len(w.ops)),
		attempted: len(w.ops),
		failed:    w.res.Errors,
		exact: map[string]float64{
			"sim.events":                       float64(w.eng.Processed),
			"regionserver.sim_ops_per_s":       w.res.OpsPerSec,
			"regionserver.sim_p50_ms":          float64(w.res.P50.Microseconds()) / 1e3,
			"regionserver.sim_p99_ms":          float64(w.res.P99.Microseconds()) / 1e3,
			"regionserver.cache_invalidations": grown(regionserver.MetricCacheInval),
			"regionserver.splits":              grown(regionserver.MetricSplits),
			"regionserver.meta_refreshes":      grown(regionserver.MetricMetaRefresh),
			"regionserver.retried_ops":         float64(w.res.Retried),
			"kvstore.flushes":                  grown(kvstore.MetricFlushes),
			"kvstore.compactions":              grown(kvstore.MetricCompactions),
			"kvstore.flush_bytes":              grown(kvstore.MetricFlushBytes),
			"kvstore.compact_bytes":            grown(kvstore.MetricCompactBytes),
			"kvstore.wal_bytes":                grown(kvstore.MetricWALBytes),
			"vfs.store_bytes_written":          float64(w.fs.bytesWritten),
			"vfs.store_files_created":          float64(w.fs.filesCreated),
			"obs.spans":                        float64(len(w.reg.Spans())),
		},
	}
	if w.res.Errors > 0 {
		st.failures = append(st.failures, fmt.Sprintf("%d ops exhausted their retries", w.res.Errors))
	}
	if lookups := grown(regionserver.MetricCacheHits) + grown(regionserver.MetricCacheMisses); lookups > 0 {
		st.exact["regionserver.cache_hit_ratio"] = grown(regionserver.MetricCacheHits) / lookups
	}
	if w.userBytes > 0 {
		st.exact["kvstore.write_amp"] = (grown(kvstore.MetricWALBytes) +
			grown(kvstore.MetricFlushBytes) + grown(kvstore.MetricCompactBytes)) / w.userBytes
	}

	// Oracles, read through a cache-free client of the authoritative
	// tier: every acknowledged write reads back, and a seeded sample of
	// keys the workload never wrote still holds its loaded value.
	verify := w.c.NewClient()
	readBack := func(key string, want []byte) {
		st.attempted++
		got, _, err := verify.Get(w.eng.Now(), kvTable, key)
		if err != nil || !bytes.Equal(got, want) {
			st.failed++
			st.failures = append(st.failures, fmt.Sprintf("%s read back wrong (err=%v)", key, err))
		}
	}
	acked := make([]string, 0, len(w.res.Acked))
	for k := range w.res.Acked {
		acked = append(acked, k)
	}
	sort.Strings(acked)
	for _, k := range acked {
		readBack(k, []byte(w.res.Acked[k]))
	}
	rng := sim.NewRand(w.seed).Derive("bench-untouched")
	for n, tries := 0, 0; n < kvSampled && tries < 100*kvSampled; tries++ {
		k := datagen.YCSBKey(rng.Intn(w.records))
		if _, written := w.res.Acked[k]; written {
			continue
		}
		readBack(k, datagen.YCSBValue(k, kvValueSize))
		n++
	}
	if err := w.c.Master.CheckMeta(); err != nil {
		st.failed++
		st.failures = append(st.failures, "META: "+err.Error())
	}
	st.attempted++

	metaLog, err := w.c.Master.MetaLogBytes()
	if err != nil {
		return st, err
	}
	st.digest = hashString(string(metaLog)) ^ hashString(fmt.Sprint(w.res.Ops, w.res.Makespan, w.res.P50, w.res.P99, w.res.P999))
	return st, nil
}
