package regionserver

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestCacheTierAgainstModel drives a small tier with seeded random
// Get/Fill/Invalidate calls and checks it after every step against a
// slice-based LRU per shard: the hit or miss, the bytes a hit returns,
// Len, and the hit, miss, invalidation and eviction counters. Every fill
// passes the same buffer, so a tier that kept the caller's bytes would
// return a later fill's value.
func TestCacheTierAgainstModel(t *testing.T) {
	type entry struct{ table, key, val string }
	tables := []string{"t", "users"}
	keys := []string{"a", "b", "c", "k1", "k2", "row7", "row8", "zz"}
	for seed := int64(1); seed <= 30; seed++ {
		rng := sim.NewRand(seed).Derive("cache-model")
		shards, capacity := 2+rng.Intn(2), 3+rng.Intn(3)
		reg := obs.NewRegistry()
		ct := newCacheTier(shards, capacity, newMetrics(reg))
		model := make([][]entry, shards) // per shard, most recently used first
		var hits, misses, invals, evicts int64
		var fill []byte
		find := func(table, key string) (int, int) {
			s := slices.Index(ct.shards, ct.shardOf(table, key))
			return s, slices.IndexFunc(model[s], func(e entry) bool { return e.table == table && e.key == key })
		}
		toFront := func(s, i int) {
			e := model[s][i]
			copy(model[s][1:i+1], model[s][:i])
			model[s][0] = e
		}
		for step := 0; step < 400; step++ {
			table, key := tables[rng.Intn(len(tables))], keys[rng.Intn(len(keys))]
			at := sim.Time(step)
			s, i := find(table, key)
			var what string
			switch op := rng.Intn(10); {
			case op < 5:
				what = "get"
				v, ok, _ := ct.Get(at, table, key)
				if ok != (i >= 0) {
					t.Fatalf("seed %d step %d: get %s/%s hit=%v, model %v", seed, step, table, key, ok, i >= 0)
				}
				if i < 0 {
					misses++
					break
				}
				hits++
				if string(v) != model[s][i].val {
					t.Fatalf("seed %d step %d: get %s/%s = %q, model %q", seed, step, table, key, v, model[s][i].val)
				}
				toFront(s, i)
			case op < 8:
				what = "fill"
				val := fmt.Sprintf("%s-%d-%0*d", key, step, rng.Intn(20), 0)
				fill = append(fill[:0], val...) // Fill copies: one buffer serves every call
				ct.Fill(at, table, key, fill)
				switch {
				case i >= 0:
					model[s][i].val = val
					toFront(s, i)
				case len(model[s]) == capacity:
					model[s] = model[s][:capacity-1]
					evicts++
					fallthrough
				default:
					model[s] = slices.Insert(model[s], 0, entry{table, key, val})
				}
			default:
				what = "invalidate"
				ct.Invalidate(at, table, key)
				if i >= 0 {
					model[s] = slices.Delete(model[s], i, i+1)
					invals++
				}
			}
			n := 0
			for _, m := range model {
				n += len(m)
			}
			if ct.Len() != n {
				t.Fatalf("seed %d step %d (%s %s/%s): Len %d, model %d", seed, step, what, table, key, ct.Len(), n)
			}
			for _, c := range []struct {
				name string
				want int64
			}{{MetricCacheHits, hits}, {MetricCacheMisses, misses}, {MetricCacheInval, invals}, {MetricCacheEvict, evicts}} {
				if got := reg.CounterValue(c.name); got != c.want {
					t.Fatalf("seed %d step %d (%s %s/%s): %s = %d, model %d", seed, step, what, table, key, c.name, got, c.want)
				}
			}
		}
	}
}
