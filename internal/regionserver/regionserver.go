// Package regionserver is the online-serving tier: a range-partitioned
// key-value service over internal/kvstore, in the shape of HBase on the
// paper's teaching cluster. A table is split into regions — contiguous
// row-key ranges, each backed by one kvstore Table persisted through vfs
// — and regions are spread across RegionServers. A master process keeps
// the META map (table, rowkey) → region → server, detects dead servers
// by missed heartbeats, reassigns their regions (the new owner replays
// the region's WAL), auto-splits hot regions, and merges cold adjacent
// ones. Clients cache region locations and retry through moves; an
// optional shard-by-key-hash cache tier absorbs read traffic before it
// reaches the servers.
//
// Everything runs on the deterministic sim clock: server work is modeled
// by a per-server busy-until horizon (ops queue behind each other), and
// every decision draws from seeded randomness only — the same seed
// yields a byte-identical META log. See docs/SERVING.md.
package regionserver

import (
	"errors"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
)

// Sentinel errors the client retry loop distinguishes.
var (
	// ErrNotServing: the contacted server does not host that region (it
	// moved or split). The client refreshes META and retries.
	ErrNotServing = errors.New("regionserver: region not serving on this server")
	// ErrServerDown: the contacted server is crashed. The client backs
	// off and retries; the master will reassign the region.
	ErrServerDown = errors.New("regionserver: server down")
	// ErrNoTable: the table does not exist in META.
	ErrNoTable = errors.New("regionserver: no such table")
	// ErrNoLiveServer: every region server is dead.
	ErrNoLiveServer = errors.New("regionserver: no live region server")
)

// Names other packages, tests and docs read; every other serving name is
// written once, where it is registered or recorded (docs/OBSERVABILITY.md).
const (
	MetricSplits      = "serving.splits"
	MetricMerges      = "serving.merges"
	MetricReassigns   = "serving.reassigns"
	MetricMetaRefresh = "serving.meta_refreshes"
	MetricCacheHits   = "serving.cache.hits"
	MetricCacheMisses = "serving.cache.misses"
	MetricCacheInval  = "serving.cache.invalidations"
	MetricCacheEvict  = "serving.cache.evictions"

	// HistOpLatency is the histogram of end-to-end client op latencies.
	HistOpLatency = "serving.op_latency"

	// Span names recorded on splits and crash recoveries.
	SpanSplit   = "serving.split"
	SpanRecover = "serving.recover"
)

// cost holds the virtual-time charges for the serving data path. The
// absolute values are teaching-cluster scale (sub-millisecond RPCs,
// millisecond writes); what matters is their ratios — cache ops an order
// of magnitude cheaper than server reads, writes costlier than reads,
// splits and WAL replay visibly expensive.
var cost = struct {
	RTT         time.Duration // client <-> server network round trip
	MetaLookup  time.Duration // master META lookup service time
	CacheOp     time.Duration // cache shard hit / fill / invalidate
	ServerRead  time.Duration // region server point-read service time
	ServerWrite time.Duration // region server put/delete service time
	ScanBase    time.Duration // region server scan setup
	ScanPerRow  time.Duration // per returned row
	SplitBase   time.Duration // region split fixed cost
	SplitPerKB  time.Duration // per KiB moved into daughters
	ReplayBase  time.Duration // WAL replay fixed cost on reassignment
	ReplayPerOp time.Duration // per replayed WAL record
}{
	RTT:         200 * time.Microsecond,
	MetaLookup:  300 * time.Microsecond,
	CacheOp:     60 * time.Microsecond,
	ServerRead:  600 * time.Microsecond,
	ServerWrite: 1 * time.Millisecond,
	ScanBase:    1 * time.Millisecond,
	ScanPerRow:  20 * time.Microsecond,
	SplitBase:   40 * time.Millisecond,
	SplitPerKB:  100 * time.Microsecond,
	ReplayBase:  20 * time.Millisecond,
	ReplayPerOp: 30 * time.Microsecond,
}

// The master's heartbeat period, and the silence after which it declares
// a server dead and reassigns its regions.
const (
	heartbeatInterval = 500 * time.Millisecond
	heartbeatExpiry   = 2 * time.Second
)

// Options configures a serving cluster.
type Options struct {
	// Servers is the number of region servers (default 4). Server i runs
	// on cluster node i+1 (node 0 is the master/gateway).
	Servers int
	// Obs receives metrics and spans; nil disables (handles are nil-safe).
	Obs *obs.Registry
	// KV tunes each region's kvstore (flush threshold, WAL segments, ...).
	// KV.Obs is overridden with Obs so kv.* metrics land in one registry.
	KV kvstore.Config
	// SplitMaxBytes splits a region when its on-disk+memstore size
	// crosses this (default 256 KiB).
	SplitMaxBytes int64
	// SplitMaxOps splits a region when it has absorbed this many ops
	// since its last split check window (default 4000) — the hot-region
	// trigger even when data fits.
	SplitMaxOps int
}

func (o *Options) defaults() {
	if o.Servers <= 0 {
		o.Servers = 4
	}
	if o.SplitMaxBytes <= 0 {
		o.SplitMaxBytes = 256 << 10
	}
	if o.SplitMaxOps <= 0 {
		o.SplitMaxOps = 4000
	}
}
