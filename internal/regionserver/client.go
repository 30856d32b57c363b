package regionserver

import (
	"errors"
	"fmt"

	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Client is the serving-tier client library: it caches region locations
// per table, routes ops to the hosting server, transparently refreshes
// from META and retries when a region moved or split (ErrNotServing),
// and reads through the optional cache tier. ErrServerDown surfaces to
// the caller after one refresh — recovering from a crash takes real
// (virtual) time, so the caller owns that backoff.
type Client struct {
	eng    *sim.Engine
	master *Master
	cost   CostModel
	m      *metrics
	cache  *CacheTier // nil = no cache tier

	locs        map[string][]RegionInfo // per-table location cache
	maxAttempts int

	reqSeq uint64 // requests issued, for the trace stride
}

// traceEvery is the client-side trace stride: every traceEvery-th request
// roots a serving.request trace (cache lookup and per-attempt region calls
// hang below it). The serving data path is far too hot to trace every op —
// the stride keeps the E13 benchmark's allocation profile flat.
const traceEvery = 64

func newClient(ma *Master, cache *CacheTier) *Client {
	return &Client{
		eng:         ma.eng,
		master:      ma,
		cost:        ma.cost,
		m:           ma.m,
		cache:       cache,
		locs:        map[string][]RegionInfo{},
		maxAttempts: 4,
	}
}

// reqCtx applies the client-side stride and roots a trace for sampled
// requests (invalid Ctx otherwise — every downstream span then no-ops).
func (cl *Client) reqCtx(at sim.Time) obs.Ctx {
	cl.reqSeq++
	if (cl.reqSeq-1)%traceEvery != 0 {
		return obs.Ctx{}
	}
	return cl.m.reg.NewTrace(at)
}

// requestSpan closes a sampled request's root span.
func (cl *Client) requestSpan(ctx obs.Ctx, op, table string, at, done sim.Time, err error) {
	if !ctx.Valid() {
		return
	}
	result := "ok"
	if err != nil && !errors.Is(err, kvstore.ErrNotFound) {
		result = "error"
	}
	ctx.End(SpanRequest, at, done, map[string]string{
		"op": op, "table": table, "result": result,
	})
}

// Cache returns the client's cache tier (nil when uncached).
func (cl *Client) Cache() *CacheTier { return cl.cache }

// refresh re-reads the table's region list from META, charging the
// lookup plus a round trip.
func (cl *Client) refresh(at sim.Time, table string) (sim.Time, error) {
	regions, err := cl.master.Regions(table)
	if err != nil {
		return at, err
	}
	cl.locs[table] = regions
	cl.m.metaRefresh.Inc()
	return at + cl.cost.MetaLookup + cl.cost.RTT, nil
}

// route resolves key → (region, server) from the location cache,
// refreshing when stale is set or nothing is cached.
func (cl *Client) route(at sim.Time, table, key string, stale bool) (RegionInfo, *Server, sim.Time, error) {
	now := at
	regions, ok := cl.locs[table]
	if stale || !ok {
		var err error
		if now, err = cl.refresh(now, table); err != nil {
			return RegionInfo{}, nil, now, err
		}
		regions = cl.locs[table]
	}
	info, ok := locate(regions, key)
	if !ok {
		return RegionInfo{}, nil, now, ErrNoTable
	}
	srv := cl.master.Server(info.Srv)
	if srv == nil {
		return RegionInfo{}, nil, now, ErrNoLiveServer
	}
	return info, srv, now, nil
}

// retryable reports whether the op should re-route and try again.
func retryable(err error) bool {
	return errors.Is(err, ErrNotServing) || errors.Is(err, ErrServerDown)
}

// do runs one routed op with the NotServing retry loop: attempt, and on
// a stale-location error refresh META and go again (bounded). The op
// callback performs the server call at the given arrival time. When ctx
// is a sampled trace, every attempt — including the retries that used to
// be a bare counter — records a serving.region_call span under it.
func (cl *Client) do(ctx obs.Ctx, at sim.Time, table, key string,
	op func(info RegionInfo, srv *Server, at sim.Time) (sim.Time, error)) (sim.Time, error) {
	now := at
	stale := false
	var lastErr error
	for attempt := 0; attempt < cl.maxAttempts; attempt++ {
		if attempt > 0 {
			cl.m.retries.Inc()
		}
		callStart := now
		info, srv, t, err := cl.route(now, table, key, stale)
		now = t
		if err != nil {
			cl.regionCallSpan(ctx, RegionInfo{}, attempt, callStart, now, err)
			return now, err
		}
		done, err := op(info, srv, now)
		if err == nil || !retryable(err) {
			cl.regionCallSpan(ctx, info, attempt, callStart, done+cl.cost.RTT, err)
			return done + cl.cost.RTT, err
		}
		lastErr = err
		now = done
		stale = true
		cl.regionCallSpan(ctx, info, attempt, callStart, now, err)
		if errors.Is(err, ErrServerDown) && attempt > 0 {
			// Refreshed and still down: META hasn't moved the region yet.
			// Recovery takes virtual time; hand the backoff to the caller.
			break
		}
	}
	return now, lastErr
}

// regionCallSpan records one routed attempt under a sampled request.
func (cl *Client) regionCallSpan(ctx obs.Ctx, info RegionInfo, attempt int, start, end sim.Time, err error) {
	if !ctx.Valid() {
		return
	}
	result := "ok"
	switch {
	case errors.Is(err, ErrNotServing):
		result = "not_serving"
	case errors.Is(err, ErrServerDown):
		result = "server_down"
	case err != nil && !errors.Is(err, kvstore.ErrNotFound):
		result = "error"
	}
	ctx.ChildSpan(SpanRegionCall, start, end, map[string]string{
		"region":  info.ID,
		"server":  info.Srv,
		"attempt": fmt.Sprint(attempt),
		"result":  result,
	})
}

// Get reads one row, through the cache tier when present (hit: served
// from the shard; miss: read through and fill). kvstore.ErrNotFound is
// the absent-row result, not a failure.
func (cl *Client) Get(at sim.Time, table, key string) ([]byte, sim.Time, error) {
	ctx := cl.reqCtx(at)
	v, done, err := cl.get(ctx, at, table, key)
	cl.requestSpan(ctx, "get", table, at, done, err)
	return v, done, err
}

func (cl *Client) get(ctx obs.Ctx, at sim.Time, table, key string) ([]byte, sim.Time, error) {
	now := at
	if cl.cache != nil {
		v, ok, done := cl.cache.Get(now, table, key)
		if ctx.Valid() {
			result := "miss"
			if ok {
				result = "hit"
			}
			ctx.ChildSpan(SpanCacheLookup, now, done, map[string]string{
				"table": table, "result": result,
			})
		}
		if ok {
			return v, done, nil
		}
		now = done
	}
	var val []byte
	done, err := cl.do(ctx, now, table, key, func(info RegionInfo, srv *Server, at sim.Time) (sim.Time, error) {
		v, d, err := srv.Get(at, info.ID, info.Epoch, key)
		val = v
		return d, err
	})
	if err == nil && cl.cache != nil {
		done = cl.cache.Fill(done, table, key, val)
	}
	return val, done, err
}

// Put writes one row and invalidates its cache entry after the ack
// (write-invalidate coherence).
func (cl *Client) Put(at sim.Time, table, key string, value []byte) (sim.Time, error) {
	ctx := cl.reqCtx(at)
	done, err := cl.put(ctx, at, table, key, value)
	cl.requestSpan(ctx, "put", table, at, done, err)
	return done, err
}

func (cl *Client) put(ctx obs.Ctx, at sim.Time, table, key string, value []byte) (sim.Time, error) {
	done, err := cl.do(ctx, at, table, key, func(info RegionInfo, srv *Server, at sim.Time) (sim.Time, error) {
		return srv.Put(at, info.ID, info.Epoch, key, value)
	})
	if err == nil && cl.cache != nil {
		done = cl.cache.Invalidate(done, table, key)
	}
	return done, err
}

// Delete removes one row (tombstone) and invalidates its cache entry.
func (cl *Client) Delete(at sim.Time, table, key string) (sim.Time, error) {
	ctx := cl.reqCtx(at)
	done, err := cl.do(ctx, at, table, key, func(info RegionInfo, srv *Server, at sim.Time) (sim.Time, error) {
		return srv.Delete(at, info.ID, info.Epoch, key)
	})
	if err == nil && cl.cache != nil {
		done = cl.cache.Invalidate(done, table, key)
	}
	cl.requestSpan(ctx, "delete", table, at, done, err)
	return done, err
}

// ReadModifyWrite reads the row then writes the new value — the YCSB
// workload-F op. The read goes through the cache like any Get; both
// halves nest under one serving.request span.
func (cl *Client) ReadModifyWrite(at sim.Time, table, key string, value []byte) (sim.Time, error) {
	ctx := cl.reqCtx(at)
	_, done, err := cl.get(ctx, at, table, key)
	if err != nil && !errors.Is(err, kvstore.ErrNotFound) {
		cl.requestSpan(ctx, "rmw", table, at, done, err)
		return done, err
	}
	done, err = cl.put(ctx, done, table, key, value)
	cl.requestSpan(ctx, "rmw", table, at, done, err)
	return done, err
}

// Scan reads up to limit rows of [start, end) (end "" = to the table's
// end; limit <= 0 = unlimited), stitching bounded per-region scans
// together across region boundaries. Scans bypass the cache tier.
func (cl *Client) Scan(at sim.Time, table, start, end string, limit int) ([]kvstore.KV, sim.Time, error) {
	ctx := cl.reqCtx(at)
	now := at
	var out []kvstore.KV
	cursor := start
	for {
		if limit > 0 && len(out) >= limit {
			break
		}
		rem := 0
		if limit > 0 {
			rem = limit - len(out)
		}
		var (
			kvs      []kvstore.KV
			next     string
			regEnd   string
			moreTail bool
		)
		done, err := cl.do(ctx, now, table, cursor, func(info RegionInfo, srv *Server, at sim.Time) (sim.Time, error) {
			k, n, d, err := srv.Scan(at, info.ID, info.Epoch, cursor, end, rem)
			kvs, next = k, n
			regEnd = info.End
			moreTail = info.End != "" && (end == "" || info.End < end)
			return d, err
		})
		now = done
		if err != nil {
			cl.requestSpan(ctx, "scan", table, at, now, err)
			return out, now, err
		}
		out = append(out, kvs...)
		if next != "" {
			cursor = next
			continue
		}
		if !moreTail {
			break
		}
		cursor = regEnd
	}
	cl.requestSpan(ctx, "scan", table, at, now, nil)
	return out, now, nil
}
