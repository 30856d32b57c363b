package experiments

import (
	"fmt"
	"time"

	"repro/internal/regionserver"
)

// E13 benchmarks the online-serving tier the way the HiBench/Cassandra
// benchmarking literature does: YCSB-style core workload mixes A (50/50
// read/update), B (95/5), C (read-only), and E (scan-heavy) against 4
// region servers, each mix run twice — straight to the region servers,
// and through the front-line cache tier — reporting ops/sec and
// p50/p99/p999 latency. A final scenario crashes the hottest region's
// server mid-workload and measures detection + WAL-replay + reassignment
// recovery, verifying that no acknowledged write is lost.

// E13MixStats is one (mix, cache) run.
type E13MixStats struct {
	Mix          string
	Cache        bool
	Ops          int
	Errors       int
	OpsPerSec    float64
	P50          time.Duration
	P99          time.Duration
	P999         time.Duration
	CacheHitRate float64
	Splits       int
	RegionsFinal int
}

// E13CrashStats is the server-crash recovery scenario.
type E13CrashStats struct {
	OpsPerSec       float64
	P99             time.Duration
	P999            time.Duration
	Errors          int
	Reassigns       int
	RecoverySeconds float64
	VerifiedWrites  int
	LostAckedWrites int
}

// E13Result is the structured outcome of E13.
type E13Result struct {
	Servers  int
	Records  int
	OpsEach  int
	Clients  int
	PreSplit int
	Runs     []E13MixStats
	Crash    E13CrashStats
}

// Run returns the stats row for one (mix, cache) combination.
func (r *E13Result) Run(mix string, cache bool) E13MixStats {
	for _, s := range r.Runs {
		if s.Mix == mix && s.Cache == cache {
			return s
		}
	}
	return E13MixStats{Mix: mix, Cache: cache}
}

// E13Opts scales the benchmark; the zero value is the full experiment.
type E13Opts struct {
	Records int // initial rows (default 4000)
	Ops     int // ops per mix (default 12000)
	Clients int // closed-loop clients (default 32)
	Servers int // region servers (default 4)
}

func (o *E13Opts) defaults() {
	if o.Records <= 0 {
		o.Records = 4000
	}
	if o.Ops <= 0 {
		o.Ops = 12000
	}
	if o.Clients <= 0 {
		o.Clients = 32
	}
	if o.Servers <= 0 {
		o.Servers = 4
	}
}

// e13Mixes are the YCSB core workloads E13 sweeps.
var e13Mixes = []string{"a", "b", "c", "e"}

func e13Bench(seed int64, o E13Opts, mix string, cache, crash bool) (*regionserver.BenchResult, error) {
	return regionserver.BenchRun(regionserver.BenchOpts{
		Mix:     mix,
		Records: o.Records,
		Ops:     o.Ops,
		Clients: o.Clients,
		Servers: o.Servers,
		Cache:   cache,
		Seed:    seed,
		Crash:   crash,
	})
}

// E13Scaled runs the serving benchmark at a chosen scale.
func E13Scaled(seed int64, o E13Opts) (*Result, error) {
	o.defaults()
	res := &E13Result{
		Servers: o.Servers,
		Records: o.Records,
		OpsEach: o.Ops,
		Clients: o.Clients,
	}
	for _, mix := range e13Mixes {
		for _, cache := range []bool{false, true} {
			br, err := e13Bench(seed, o, mix, cache, false)
			if err != nil {
				return nil, fmt.Errorf("e13 mix %s cache=%v: %w", mix, cache, err)
			}
			if br.LostAckedWrites > 0 {
				return nil, fmt.Errorf("e13 mix %s cache=%v: %d acked writes lost", mix, cache, br.LostAckedWrites)
			}
			res.Runs = append(res.Runs, E13MixStats{
				Mix: mix, Cache: cache,
				Ops: br.Ops, Errors: br.Errors,
				OpsPerSec: br.OpsPerSec,
				P50:       br.P50, P99: br.P99, P999: br.P999,
				CacheHitRate: br.CacheHitRate,
				Splits:       br.Splits,
				RegionsFinal: br.RegionsFinal,
			})
		}
	}
	// Crash scenario: workload A through the cache tier, hottest server
	// killed mid-run.
	cr, err := e13Bench(seed, o, "a", true, true)
	if err != nil {
		return nil, fmt.Errorf("e13 crash scenario: %w", err)
	}
	res.Crash = E13CrashStats{
		OpsPerSec:       cr.OpsPerSec,
		P99:             cr.P99,
		P999:            cr.P999,
		Errors:          cr.Errors,
		Reassigns:       cr.Reassigns,
		RecoverySeconds: cr.RecoverySeconds,
		VerifiedWrites:  cr.VerifiedWrites,
		LostAckedWrites: cr.LostAckedWrites,
	}

	aPlain, ePlain := res.Run("a", false), res.Run("e", false)
	bPlain, bCached := res.Run("b", false), res.Run("b", true)
	cPlain, cCached := res.Run("c", false), res.Run("c", true)
	out := &Result{
		ID: "E13",
		Title: fmt.Sprintf("Online serving: YCSB mixes on %d region servers, with and without the cache tier (%d rows, %d ops/mix, %d clients)",
			o.Servers, o.Records, o.Ops, o.Clients),
		Header: []string{"mix", "cache", "ops/sec", "p50", "p99", "p999", "hit rate", "splits", "regions"},
		Raw:    res,
		Headline: map[string]float64{
			"workloada-ops-per-sec":     aPlain.OpsPerSec,
			"workloada-p99-ms":          float64(aPlain.P99.Milliseconds()),
			"workloadc-ops-per-sec":     cPlain.OpsPerSec,
			"workloadc-p99-ms":          float64(cPlain.P99.Milliseconds()),
			"workloade-ops-per-sec":     ePlain.OpsPerSec,
			"workloadc-cache-speedup-x": cCached.OpsPerSec / cPlain.OpsPerSec,
			"workloadb-cache-speedup-x": bCached.OpsPerSec / bPlain.OpsPerSec,
			"cache-hit-rate":            cCached.CacheHitRate,
			"region-splits":             float64(aPlain.Splits),
			"recovery-seconds":          res.Crash.RecoverySeconds,
			"reassigned-regions":        float64(res.Crash.Reassigns),
			"lost-acked-writes":         float64(res.Crash.LostAckedWrites),
		},
	}
	for _, s := range res.Runs {
		hit := ""
		if s.Cache {
			hit = fmt.Sprintf("%.0f%%", 100*s.CacheHitRate)
		}
		out.Rows = append(out.Rows, []string{
			s.Mix, fmt.Sprint(s.Cache), fmt.Sprintf("%.0f", s.OpsPerSec),
			fmtDur(s.P50), fmtDur(s.P99), fmtDur(s.P999),
			hit, fmt.Sprint(s.Splits), fmt.Sprint(s.RegionsFinal),
		})
	}
	for _, mix := range e13Mixes {
		plain, cached := res.Run(mix, false), res.Run(mix, true)
		if plain.OpsPerSec > 0 {
			out.Notes = append(out.Notes, fmt.Sprintf(
				"workload %s: %.0f -> %.0f ops/sec through the cache tier (%.1fx, hit rate %.0f%%)",
				mix, plain.OpsPerSec, cached.OpsPerSec, cached.OpsPerSec/plain.OpsPerSec,
				100*cached.CacheHitRate))
		}
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"crash scenario: server killed mid-run; %d regions reassigned after WAL replay in %.2fs; %d/%d acked writes verified, %d lost",
		res.Crash.Reassigns, res.Crash.RecoverySeconds,
		res.Crash.VerifiedWrites, res.Crash.VerifiedWrites+res.Crash.LostAckedWrites,
		res.Crash.LostAckedWrites))
	return out, nil
}

// E13Serving is the registry entry: the full-scale benchmark.
func E13Serving(seed int64) (*Result, error) {
	return E13Scaled(seed, E13Opts{})
}

// E13ReplayArtifacts runs the crash scenario once and returns the byte
// artifacts the determinism tests compare across runs: the master's META
// event log and the obs snapshot.
func E13ReplayArtifacts(seed int64, o E13Opts) (metaLog, obsSnap []byte, err error) {
	o.defaults()
	br, err := e13Bench(seed, o, "a", true, true)
	if err != nil {
		return nil, nil, err
	}
	return br.MetaLog, br.Snap, nil
}
