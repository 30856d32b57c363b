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
	m      *metrics
	cache  *CacheTier // nil = no cache tier

	locs        map[string]*tableLocs // per-table location cache
	maxAttempts int

	reqSeq  uint64 // requests issued, for the trace stride
	scratch []byte // where ReadModifyWrite reads the row it overwrites
}

// tableLocs is one table's cached region list with each region's server
// resolved when the list was fetched, so routing an op is one binary
// search and no lookup by name.
type tableLocs struct {
	regions []RegionInfo
	servers []*Server // servers[i] hosts regions[i]; nil if META named none
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
		m:           ma.m,
		cache:       cache,
		locs:        map[string]*tableLocs{},
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
	ctx.End("serving.request", at, done, map[string]string{
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
	locs := &tableLocs{regions: regions, servers: make([]*Server, len(regions))}
	for i := range regions {
		locs.servers[i] = cl.master.Server(regions[i].Srv)
	}
	cl.locs[table] = locs
	cl.m.metaRefresh.Inc()
	return at + cost.MetaLookup + cost.RTT, nil
}

// route resolves key → (region, server) from the location cache,
// refreshing when stale is set or nothing is cached. The region it
// returns points into the cache and is good until the next refresh.
func (cl *Client) route(at sim.Time, table, key string, stale bool) (*RegionInfo, *Server, sim.Time, error) {
	now := at
	locs, ok := cl.locs[table]
	if stale || !ok {
		var err error
		if now, err = cl.refresh(now, table); err != nil {
			return nil, nil, now, err
		}
		locs = cl.locs[table]
	}
	i := locateIndex(locs.regions, key)
	if i < 0 {
		return nil, nil, now, ErrNoTable
	}
	if locs.servers[i] == nil {
		return nil, nil, now, ErrNoLiveServer
	}
	return &locs.regions[i], locs.servers[i], now, nil
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
	op func(info *RegionInfo, srv *Server, at sim.Time) (sim.Time, error)) (sim.Time, error) {
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
			regionCallSpan(ctx, "", "", attempt, callStart, now, err)
			return now, err
		}
		done, err := op(info, srv, now)
		if err == nil || !retryable(err) {
			regionCallSpan(ctx, info.ID, info.Srv, attempt, callStart, done+cost.RTT, err)
			return done + cost.RTT, err
		}
		lastErr = err
		now = done
		stale = true
		regionCallSpan(ctx, info.ID, info.Srv, attempt, callStart, now, err)
		if errors.Is(err, ErrServerDown) && attempt > 0 {
			// Refreshed and still down: META hasn't moved the region yet.
			// Recovery takes virtual time; hand the backoff to the caller.
			break
		}
	}
	return now, lastErr
}

// regionCallSpan records one routed attempt under a sampled request.
func regionCallSpan(ctx obs.Ctx, region, server string, attempt int, start, end sim.Time, err error) {
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
	ctx.ChildSpan("serving.region_call", start, end, map[string]string{
		"region":  region,
		"server":  server,
		"attempt": fmt.Sprint(attempt),
		"result":  result,
	})
}

// Get reads one row, through the cache tier when present (hit: served
// from the shard; miss: read through and fill), and returns a copy the
// caller owns. kvstore.ErrNotFound is the absent-row result, not a
// failure.
func (cl *Client) Get(at sim.Time, table, key string) ([]byte, sim.Time, error) {
	return cl.getInto(nil, at, table, key)
}

// getInto is Get with the value appended to buf[:0], so a caller that
// reads many rows and keeps none reuses one buffer.
func (cl *Client) getInto(buf []byte, at sim.Time, table, key string) ([]byte, sim.Time, error) {
	ctx := cl.reqCtx(at)
	v, done, err := cl.get(ctx, buf, at, table, key)
	cl.requestSpan(ctx, "get", table, at, done, err)
	return v, done, err
}

func (cl *Client) get(ctx obs.Ctx, buf []byte, at sim.Time, table, key string) ([]byte, sim.Time, error) {
	now := at
	if cl.cache != nil {
		v, ok, done := cl.cache.Get(now, table, key)
		// Guarded because building attrs costs.
		if ctx.Valid() {
			result := "miss"
			if ok {
				result = "hit"
			}
			ctx.ChildSpan("serving.cache_lookup", now, done, map[string]string{
				"table": table, "result": result,
			})
		}
		if ok {
			return append(buf[:0], v...), done, nil
		}
		now = done
	}
	val := buf
	done, err := cl.do(ctx, now, table, key, func(info *RegionInfo, srv *Server, at sim.Time) (sim.Time, error) {
		v, d, err := srv.getInto(val, at, info.ID, info.Epoch, key)
		if err == nil {
			val = v
		}
		return d, err
	})
	if err != nil {
		return nil, done, err
	}
	if cl.cache != nil {
		// The shard keeps its own copy: val is the caller's buffer.
		done = cl.cache.Fill(done, table, key, append([]byte(nil), val...))
	}
	return val, done, nil
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
	done, err := cl.do(ctx, at, table, key, func(info *RegionInfo, srv *Server, at sim.Time) (sim.Time, error) {
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
	done, err := cl.do(ctx, at, table, key, func(info *RegionInfo, srv *Server, at sim.Time) (sim.Time, error) {
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
	old, done, err := cl.get(ctx, cl.scratch, at, table, key)
	if err == nil {
		cl.scratch = old
	}
	if err == nil || errors.Is(err, kvstore.ErrNotFound) {
		done, err = cl.put(ctx, done, table, key, value)
	}
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
		done, err := cl.do(ctx, now, table, cursor, func(info *RegionInfo, srv *Server, at sim.Time) (sim.Time, error) {
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
