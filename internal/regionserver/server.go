package regionserver

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// metrics holds the interned obs handles every layer shares. All handles
// are nil-safe, so a nil registry just disables observability.
type metrics struct {
	gets, puts, deletes, scans         *obs.Counter
	notServing, serverDown             *obs.Counter
	splits, merges, reassigns          *obs.Counter
	metaRefresh, retries               *obs.Counter
	cacheHits, cacheMisses, cacheInval *obs.Counter
	cacheEvict                         *obs.Counter
	opLatency                          *obs.Histogram
	reg                                *obs.Registry
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		gets:        r.Counter("serving.gets"),
		puts:        r.Counter("serving.puts"),
		deletes:     r.Counter("serving.deletes"),
		scans:       r.Counter("serving.scans"),
		notServing:  r.Counter("serving.not_serving"),
		serverDown:  r.Counter("serving.server_down"),
		splits:      r.Counter(MetricSplits),
		merges:      r.Counter(MetricMerges),
		reassigns:   r.Counter(MetricReassigns),
		metaRefresh: r.Counter(MetricMetaRefresh),
		retries:     r.Counter("serving.client_retries"),
		cacheHits:   r.Counter(MetricCacheHits),
		cacheMisses: r.Counter(MetricCacheMisses),
		cacheInval:  r.Counter(MetricCacheInval),
		cacheEvict:  r.Counter(MetricCacheEvict),
		opLatency:   r.Histogram(HistOpLatency),
		reg:         r,
	}
}

// hostedRegion is a region open on a server: the kvstore Table plus the
// load accounting the split/merge heuristics read.
type hostedRegion struct {
	info  RegionInfo
	tbl   *kvstore.Table
	ops   int // ops in the current load window (reset by the master)
	total int // ops since the region opened here
	// splitAsked dedups the split request until the master acts.
	splitAsked bool
	// refs are the retired directories whose store files the table read
	// through reference markers when it was opened; it reads them until
	// its first compaction rewrites them.
	refs []string
}

// queue is a service queue: each op occupies it from max(arrival,
// busyUntil) for its service time, so concurrent closed-loop clients
// contend for it like they would for a real RPC handler thread.
type queue struct{ busyUntil sim.Time }

// occupy models one op of the given service time and returns its
// completion instant.
func (q *queue) occupy(at, service sim.Time) sim.Time {
	q.busyUntil = max(at, q.busyUntil) + service
	return q.busyUntil
}

// Server is one region server: it hosts kvstore-backed regions and
// serves point ops and scans through its service queue.
type Server struct {
	queue
	name string
	node cluster.NodeID
	eng  *sim.Engine
	fs   vfs.FileSystem
	kv   kvstore.Config
	m    *metrics

	alive   bool
	regions map[string]*hostedRegion // by region ID

	// askSplit is the master's hot-region hook; called (deferred via the
	// engine, never reentrantly) when a region crosses the thresholds.
	askSplit      func(regionID string)
	splitMaxBytes int64
	splitMaxOps   int
}

// Name returns the server's name ("rs1", ...).
func (s *Server) Name() string { return s.name }

// Node returns the cluster node the server runs on.
func (s *Server) Node() cluster.NodeID { return s.node }

// Alive reports whether the server is up.
func (s *Server) Alive() bool { return s.alive }

// RegionCount returns the number of regions currently hosted.
func (s *Server) RegionCount() int { return len(s.regions) }

// regionIDs returns the hosted region IDs, sorted (deterministic
// iteration for status pages and reassignment).
func (s *Server) regionIDs() []string {
	ids := make([]string, 0, len(s.regions))
	for id := range s.regions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// lookup resolves (regionID, epoch) to the hosted region or fails with
// ErrServerDown / ErrNotServing. The epoch check fences clients holding
// a stale location: after a move or split the region may be gone, or
// back here under a newer epoch.
func (s *Server) lookupRegion(regionID string, epoch int) (*hostedRegion, error) {
	if !s.alive {
		s.m.serverDown.Inc()
		return nil, ErrServerDown
	}
	hr, ok := s.regions[regionID]
	if !ok || hr.info.Epoch != epoch {
		s.m.notServing.Inc()
		return nil, ErrNotServing
	}
	return hr, nil
}

// noteOp does the per-op load accounting and fires the hot-region hook
// when a region crosses the split thresholds.
func (s *Server) noteOp(hr *hostedRegion) {
	hr.ops++
	hr.total++
	if hr.splitAsked || s.askSplit == nil {
		return
	}
	if (s.splitMaxOps > 0 && hr.ops >= s.splitMaxOps) ||
		(s.splitMaxBytes > 0 && hr.tbl.SizeBytes() >= s.splitMaxBytes) {
		hr.splitAsked = true
		id := hr.info.ID
		// Deferred: the split must not run inside this op's callback.
		s.eng.Schedule(s.eng.Now(), func() { s.askSplit(id) })
	}
}

// Get serves a point read arriving at `at`; returns a copy of the value
// and the virtual completion time.
func (s *Server) Get(at sim.Time, regionID string, epoch int, key string) ([]byte, sim.Time, error) {
	return s.getInto(nil, at, regionID, epoch, key)
}

// getInto is Get with the value appended to buf[:0].
func (s *Server) getInto(buf []byte, at sim.Time, regionID string, epoch int, key string) ([]byte, sim.Time, error) {
	hr, err := s.lookupRegion(regionID, epoch)
	if err != nil {
		return nil, at, err
	}
	done := s.occupy(at, cost.ServerRead)
	s.m.gets.Inc()
	s.noteOp(hr)
	v, err := hr.tbl.GetInto(buf, key)
	return v, done, err
}

// Put serves a write arriving at `at`. The record is on the region's WAL
// when Put returns — an acknowledged write survives a crash of this
// server via replay on the next owner.
func (s *Server) Put(at sim.Time, regionID string, epoch int, key string, value []byte) (sim.Time, error) {
	hr, err := s.lookupRegion(regionID, epoch)
	if err != nil {
		return at, err
	}
	done := s.occupy(at, cost.ServerWrite)
	s.m.puts.Inc()
	s.noteOp(hr)
	return done, hr.tbl.Put(key, value)
}

// Delete serves a delete arriving at `at` (a WAL-logged tombstone, like
// Put).
func (s *Server) Delete(at sim.Time, regionID string, epoch int, key string) (sim.Time, error) {
	hr, err := s.lookupRegion(regionID, epoch)
	if err != nil {
		return at, err
	}
	done := s.occupy(at, cost.ServerWrite)
	s.m.deletes.Inc()
	s.noteOp(hr)
	return done, hr.tbl.Delete(key)
}

// Scan serves a bounded range read within one region: up to limit rows
// from [start, end) clamped to the region, plus a resume cursor ("" when
// the region is exhausted). The client stitches regions together.
func (s *Server) Scan(at sim.Time, regionID string, epoch int, start, end string, limit int) ([]kvstore.KV, string, sim.Time, error) {
	hr, err := s.lookupRegion(regionID, epoch)
	if err != nil {
		return nil, "", at, err
	}
	if hr.info.Start > start {
		start = hr.info.Start
	}
	end = kvstore.MinBound(end, hr.info.End)
	kvs, cursor, err := hr.tbl.ScanRange(start, end, limit)
	if err != nil {
		return nil, "", at, err
	}
	done := s.occupy(at, cost.ScanBase+sim.Time(len(kvs))*cost.ScanPerRow)
	s.m.scans.Inc()
	s.noteOp(hr)
	return kvs, cursor, done, nil
}

// openRegion opens (or reopens, replaying the WAL) the region's kvstore
// and starts serving it. Returns the count of replayed WAL records so
// the master can charge recovery time.
func (s *Server) openRegion(info RegionInfo) (int, error) {
	before := int64(0)
	if s.m.reg != nil {
		before = s.m.reg.CounterValue(kvstore.MetricWALReplayed)
	}
	tbl, err := kvstore.Open(s.fs, info.Path, s.kv)
	if err != nil {
		return 0, err
	}
	replayed := 0
	if s.m.reg != nil {
		replayed = int(s.m.reg.CounterValue(kvstore.MetricWALReplayed) - before)
	}
	s.host(info, tbl)
	return replayed, nil
}

// host starts serving the region from an open table.
func (s *Server) host(info RegionInfo, tbl *kvstore.Table) {
	s.regions[info.ID] = &hostedRegion{info: info, tbl: tbl, refs: tbl.References()}
}

// closeRegion stops serving the region (its durable state stays on the
// filesystem).
func (s *Server) closeRegion(regionID string) {
	delete(s.regions, regionID)
}

// Crash kills the server: every hosted region's in-memory state is gone;
// the WALs and store files survive on the shared filesystem for the next
// owner to replay.
func (s *Server) Crash() {
	s.alive = false
	s.regions = map[string]*hostedRegion{}
}

// Restart brings a crashed server back empty; the master re-adopts it as
// a rebalance target on its next heartbeat.
func (s *Server) Restart() {
	if s.alive {
		return
	}
	s.alive = true
	s.busyUntil = s.eng.Now()
}
