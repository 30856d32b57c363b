package datagen

import (
	"fmt"

	"repro/internal/sim"
)

// YCSB-style workload generator for the online-serving tier (see
// docs/SERVING.md and experiment E13). The op mixes follow the standard
// YCSB core workloads the HiBench/Cassandra benchmarking literature
// reports against:
//
//	A  50% read / 50% update     (session store)
//	B  95% read /  5% update     (photo tagging)
//	C 100% read                  (user-profile cache)
//	E  95% scan /  5% insert     (threaded conversations)
//	F  50% read / 50% read-modify-write
//
// Key popularity is Zipf-distributed over the initial record space, and
// ranks map to sequential row keys — so the head of the key range is
// hot, which gives the "find the hot region" lab an unambiguous answer.

// YCSB op types.
const (
	YCSBRead   = "read"
	YCSBUpdate = "update"
	YCSBInsert = "insert"
	YCSBScan   = "scan"
	YCSBRMW    = "rmw"
)

// YCSBOp is one generated operation. Value is set for update/insert/rmw;
// ScanLen for scan.
type YCSBOp struct {
	Type    string
	Key     string
	Value   []byte
	ScanLen int
}

// YCSBOpts sizes a workload.
type YCSBOpts struct {
	Mix       string // "a", "b", "c", "e", or "f"
	Records   int    // initial loaded keyspace (default 1000)
	Ops       int    // operations to generate (default 10000)
	ValueSize int    // value bytes (default 100)
	Seed      int64
}

const (
	ycsbZipfS      = 1.1 // key popularity skew
	ycsbMaxScanLen = 100 // a scan reads 1..ycsbMaxScanLen rows
)

func (o *YCSBOpts) defaults() {
	if o.Records <= 0 {
		o.Records = 1000
	}
	if o.Ops <= 0 {
		o.Ops = 10000
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 100
	}
}

// ycsbMix is the op-type probability split of one core workload.
type ycsbMix struct{ read, update, insert, scan, rmw float64 }

var ycsbMixes = map[string]ycsbMix{
	"a": {read: 0.5, update: 0.5},
	"b": {read: 0.95, update: 0.05},
	"c": {read: 1.0},
	"e": {scan: 0.95, insert: 0.05},
	"f": {read: 0.5, rmw: 0.5},
}

// YCSBKey returns the i-th row key. Keys sort by index, so Zipf rank 0 —
// the hottest key — is the smallest row key.
func YCSBKey(i int) string { return fmt.Sprintf("user%08d", i) }

// YCSBValue builds the deterministic payload for a key: size bytes of the
// key repeated, so any byte of any value is checkable without stored
// state (and replays are byte-identical without burning RNG draws).
func YCSBValue(key string, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = key[i%len(key)]
	}
	return v
}

// YCSBLoad generates the initial dataset: one insert per record, in key
// order (bulk-loadable).
func YCSBLoad(records, valueSize int) []YCSBOp {
	if valueSize <= 0 {
		valueSize = 100
	}
	ops := make([]YCSBOp, records)
	for i := range ops {
		k := YCSBKey(i)
		ops[i] = YCSBOp{Type: YCSBInsert, Key: k, Value: YCSBValue(k, valueSize)}
	}
	return ops
}

// YCSB generates the op stream for one core workload mix.
func YCSB(opts YCSBOpts) ([]YCSBOp, error) {
	opts.defaults()
	mix, ok := ycsbMixes[opts.Mix]
	if !ok {
		return nil, fmt.Errorf("datagen: unknown YCSB mix %q (want a, b, c, e, or f)", opts.Mix)
	}
	rng := sim.NewRand(opts.Seed).Derive("ycsb-" + opts.Mix)
	zipf := rng.Zipf(ycsbZipfS, uint64(opts.Records))
	nextInsert := opts.Records
	ops := make([]YCSBOp, 0, opts.Ops)
	for i := 0; i < opts.Ops; i++ {
		p := rng.Float64()
		op := YCSBOp{Key: YCSBKey(int(zipf.Uint64()))}
		switch {
		case p < mix.read:
			op.Type = YCSBRead
		case p < mix.read+mix.update:
			op.Type = YCSBUpdate
			op.Value = YCSBValue(op.Key, opts.ValueSize)
		case p < mix.read+mix.update+mix.insert:
			op.Type = YCSBInsert
			op.Key = YCSBKey(nextInsert)
			op.Value = YCSBValue(op.Key, opts.ValueSize)
			nextInsert++
		case p < mix.read+mix.update+mix.insert+mix.scan:
			op.Type = YCSBScan
			op.ScanLen = 1 + rng.Intn(ycsbMaxScanLen)
		default:
			op.Type = YCSBRMW
			op.Value = YCSBValue(op.Key, opts.ValueSize)
		}
		ops = append(ops, op)
	}
	return ops, nil
}
