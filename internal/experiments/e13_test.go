package experiments

import (
	"bytes"
	"testing"
)

// TestE13Smoke is the CI gate on the serving benchmark: a scaled-down
// E13 (the full registry entry runs 8 mix combinations at 12k ops each)
// still has to show the shape of the claims — every mix completes, the
// cache tier speeds up the read-heavy mixes, and the crash scenario
// recovers with zero lost acknowledged writes.
func TestE13Smoke(t *testing.T) {
	opts := E13Opts{Records: 800, Ops: 2400, Clients: 16, Servers: 4}
	res, err := E13Scaled(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := res.Raw.(*E13Result)
	if !ok {
		t.Fatalf("E13 Raw is %T, want *E13Result", res.Raw)
	}
	if len(raw.Runs) != 8 {
		t.Fatalf("%d runs, want 4 mixes x {plain, cached}", len(raw.Runs))
	}
	for _, s := range raw.Runs {
		if s.Ops == 0 || s.OpsPerSec <= 0 {
			t.Fatalf("mix %s cache=%v: no throughput: %+v", s.Mix, s.Cache, s)
		}
		if s.Errors > 0 {
			t.Fatalf("mix %s cache=%v: %d errors without faults", s.Mix, s.Cache, s.Errors)
		}
		if s.P50 <= 0 || s.P50 > s.P99 || s.P99 > s.P999 {
			t.Fatalf("mix %s cache=%v: broken percentiles %v/%v/%v", s.Mix, s.Cache, s.P50, s.P99, s.P999)
		}
	}
	// The cache tier must win on the read-heavy mixes.
	for _, mix := range []string{"b", "c"} {
		plain, cached := raw.Run(mix, false), raw.Run(mix, true)
		if cached.OpsPerSec <= plain.OpsPerSec {
			t.Errorf("mix %s: cache tier did not help: %.0f vs %.0f ops/sec",
				mix, cached.OpsPerSec, plain.OpsPerSec)
		}
		if cached.CacheHitRate <= 0.3 {
			t.Errorf("mix %s: cache hit rate %.2f", mix, cached.CacheHitRate)
		}
	}
	// Crash recovery: regions reassigned, nothing acknowledged lost.
	if raw.Crash.Reassigns == 0 {
		t.Error("crash scenario reassigned no regions")
	}
	if raw.Crash.LostAckedWrites != 0 {
		t.Errorf("%d acknowledged writes lost in recovery", raw.Crash.LostAckedWrites)
	}
	if raw.Crash.VerifiedWrites == 0 {
		t.Error("crash scenario verified nothing")
	}
	if raw.Crash.RecoverySeconds <= 0 {
		t.Errorf("recovery window %.2fs", raw.Crash.RecoverySeconds)
	}
	// The scaled run states its headline metrics too.
	m := res.Headline
	if m["workloadc-cache-speedup-x"] <= 1 {
		t.Errorf("headline speedup %.2f, want > 1", m["workloadc-cache-speedup-x"])
	}
	if m["lost-acked-writes"] != 0 {
		t.Errorf("headline lost-acked-writes %v", m["lost-acked-writes"])
	}
}

// TestE13ReplayDeterministic runs the crash scenario twice per seed and
// compares the META event log and obs snapshot byte for byte — the
// serving tier's replays-are-identical guarantee, cache tier, fault
// injector and all.
func TestE13ReplayDeterministic(t *testing.T) {
	small := E13Opts{Records: 600, Ops: 1800, Clients: 16, Servers: 4}
	cases := []struct {
		seed int64
		opts E13Opts
	}{
		{seed: 1234, opts: E13Opts{}}, // full-scale crash scenario
		{seed: 7, opts: small},
		{seed: 99, opts: small},
	}
	for _, tc := range cases {
		tc := tc
		if testing.Short() && tc.opts == (E13Opts{}) {
			continue
		}
		log1, snap1, err := E13ReplayArtifacts(tc.seed, tc.opts)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		log2, snap2, err := E13ReplayArtifacts(tc.seed, tc.opts)
		if err != nil {
			t.Fatalf("seed %d rerun: %v", tc.seed, err)
		}
		if !bytes.Equal(log1, log2) {
			t.Errorf("seed %d: META logs differ across replays", tc.seed)
		}
		if !bytes.Equal(snap1, snap2) {
			t.Errorf("seed %d: obs snapshots differ across replays", tc.seed)
		}
		if len(log1) == 0 {
			t.Errorf("seed %d: empty META log", tc.seed)
		}
	}
}
