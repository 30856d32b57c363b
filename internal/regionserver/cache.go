package regionserver

import (
	"container/list"
	"fmt"
	"hash/fnv"

	"repro/internal/obs"
	"repro/internal/sim"
)

// CacheTier is the front-line cache: N independent shards, keys routed
// by hash, each shard an LRU with its own service queue and hit/miss
// counters. Clients read through it (miss → region server → fill) and
// invalidate on write, so a single shared tier stays coherent. It caches
// presence only — a read miss for an absent row still hits the server
// (no negative caching). In steady state it allocates nothing: entries
// are keyed by a comparable struct, and an evicted or invalidated entry,
// value buffer and all, serves the next fill.
type CacheTier struct {
	shards []*cacheShard
	m      *metrics
}

type cacheKey struct{ table, key string }

type cacheEntry struct {
	key cacheKey
	val []byte // the entry's own copy, reused by its next fill
}

// cacheShard's list holds its live entries, most recently used first,
// then the invalidated ones that wait for a fill to reuse them; the map
// indexes the live ones only.
type cacheShard struct {
	queue
	capacity int
	items    map[cacheKey]*list.Element
	lru      *list.List
	hits     *obs.Counter
	misses   *obs.Counter
}

// newCacheTier builds a tier of `shards` LRU shards holding up to
// `capacity` entries each. Per-shard hit/miss counters are published as
// serving.cache.sNN.{hits,misses} alongside the aggregate counters.
func newCacheTier(shards, capacity int, m *metrics) *CacheTier {
	if shards <= 0 {
		shards = 16
	}
	if capacity <= 0 {
		capacity = 128
	}
	ct := &CacheTier{m: m}
	for i := 0; i < shards; i++ {
		ct.shards = append(ct.shards, &cacheShard{
			capacity: capacity,
			items:    map[cacheKey]*list.Element{},
			lru:      list.New(),
			hits:     m.reg.Counter(fmt.Sprintf("serving.cache.s%02d.hits", i)),
			misses:   m.reg.Counter(fmt.Sprintf("serving.cache.s%02d.misses", i)),
		})
	}
	return ct
}

// shardOf routes a key to its shard by FNV-32 hash.
func (ct *CacheTier) shardOf(table, key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(table))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return ct.shards[int(h.Sum32())%len(ct.shards)]
}

// Get probes the key's shard. On a hit the value and completion time
// come back with ok=true; the value is the entry's own buffer, good until
// the shard's next Fill. A miss only charges the probe.
func (ct *CacheTier) Get(at sim.Time, table, key string) ([]byte, bool, sim.Time) {
	sh := ct.shardOf(table, key)
	done := sh.occupy(at, cost.CacheOp)
	el, ok := sh.items[cacheKey{table, key}]
	if !ok {
		sh.misses.Inc()
		ct.m.cacheMisses.Inc()
		return nil, false, done
	}
	sh.hits.Inc()
	ct.m.cacheHits.Inc()
	sh.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true, done
}

// Fill installs a copy of val after a read-through miss, evicting the
// shard's LRU tail when full.
func (ct *CacheTier) Fill(at sim.Time, table, key string, val []byte) sim.Time {
	sh := ct.shardOf(table, key)
	done := sh.occupy(at, cost.CacheOp)
	ck := cacheKey{table, key}
	el, ok := sh.items[ck]
	switch {
	case ok:
	case len(sh.items) >= sh.capacity:
		el = sh.lru.Back()
		delete(sh.items, el.Value.(*cacheEntry).key)
		ct.m.cacheEvict.Inc()
	case sh.lru.Len() > len(sh.items): // reuse an invalidated entry
		el = sh.lru.Back()
	default:
		el = sh.lru.PushFront(&cacheEntry{})
	}
	e := el.Value.(*cacheEntry)
	e.key, e.val = ck, append(e.val[:0], val...)
	sh.items[ck] = el
	sh.lru.MoveToFront(el)
	return done
}

// Invalidate drops the key after a write (write-invalidate coherence:
// the next read re-fills from the region server).
func (ct *CacheTier) Invalidate(at sim.Time, table, key string) sim.Time {
	sh := ct.shardOf(table, key)
	done := sh.occupy(at, cost.CacheOp)
	ck := cacheKey{table, key}
	if el, ok := sh.items[ck]; ok {
		sh.lru.MoveToBack(el)
		delete(sh.items, ck)
		ct.m.cacheInval.Inc()
	}
	return done
}

// Len returns the total cached entries across shards.
func (ct *CacheTier) Len() int {
	n := 0
	for _, sh := range ct.shards {
		n += len(sh.items)
	}
	return n
}
