// Package mapreduce implements the MapReduce programming model the course
// teaches: mappers, reducers, combiners, custom value classes (Hadoop's
// Writable pattern), partitioners, counters, and text input with splits
// that respect record boundaries. The package is runtime-agnostic — the
// same Job runs on the serial standalone runner (assignment 1) and on the
// distributed JobTracker/TaskTracker runtime over HDFS (assignment 2)
// without modification.
package mapreduce

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
)

// Value is the Writable-style value contract. Values cross the shuffle as
// encoded bytes, so custom value classes (like the airline assignment's
// sum+count pair) control their own wire size — and the framework can
// meter real shuffle bytes.
type Value interface {
	// EncodeValue serialises the value for the shuffle or output.
	EncodeValue() []byte
	// String renders the value for text output files.
	String() string
}

// ValueDecoder reconstructs a Value from its encoded form. Each Job names
// one decoder for the values its mappers emit.
type ValueDecoder func([]byte) (Value, error)

// Text is a string Value.
type Text string

func (t Text) EncodeValue() []byte { return []byte(t) }
func (t Text) String() string      { return string(t) }

// DecodeText decodes a Text value.
func DecodeText(b []byte) (Value, error) { return Text(b), nil }

// Bytes is a raw-bytes Value (Hadoop's BytesWritable): what a reducer
// that interprets no value emits for the bytes Values.NextBytes hands it.
// Its owner may overwrite those bytes after Emit returns, so EncodeValue
// returns a copy; the reduce task's emitter writes them out without one.
type Bytes []byte

func (b Bytes) EncodeValue() []byte { return append([]byte(nil), b...) }
func (b Bytes) String() string      { return string(b) }

// Int64 is an integer Value (Hadoop's LongWritable).
type Int64 int64

// smallInt64Enc holds the shared encodings of the smallest Int64 values.
// Counting jobs emit Int64(1) once per input token, so interning the
// encoding removes one 8-byte allocation per emitted record. The slices
// are shared: encoded values are read-only once emitted (they travel the
// shuffle and output paths untouched), which is what makes this safe.
var smallInt64Enc = func() [32][]byte {
	var encs [32][]byte
	backing := make([]byte, 8*len(encs))
	for i := range encs {
		b := backing[8*i : 8*i+8]
		binary.BigEndian.PutUint64(b, uint64(i))
		encs[i] = b
	}
	return encs
}()

func (v Int64) EncodeValue() []byte {
	if v >= 0 && int64(v) < int64(len(smallInt64Enc)) {
		return smallInt64Enc[v]
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	return buf[:]
}
func (v Int64) String() string { return strconv.FormatInt(int64(v), 10) }

// DecodeInt64 decodes an Int64 value.
func DecodeInt64(b []byte) (Value, error) {
	if len(b) != 8 {
		return nil, fmt.Errorf("mapreduce: Int64 wants 8 bytes, got %d", len(b))
	}
	return Int64(binary.BigEndian.Uint64(b)), nil
}

// Float64 is a floating-point Value (Hadoop's DoubleWritable).
type Float64 float64

func (v Float64) EncodeValue() []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(float64(v)))
	return buf[:]
}
func (v Float64) String() string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }

// DecodeFloat64 decodes a Float64 value.
func DecodeFloat64(b []byte) (Value, error) {
	if len(b) != 8 {
		return nil, fmt.Errorf("mapreduce: Float64 wants 8 bytes, got %d", len(b))
	}
	return Float64(math.Float64frombits(binary.BigEndian.Uint64(b))), nil
}

// Pair is one key/value record with the value in encoded form, as it
// travels through sort and shuffle.
type Pair struct {
	Key string
	Val []byte
}

// Bytes returns the wire size of the pair, the unit the shuffle meters.
func (p Pair) Bytes() int64 { return int64(len(p.Key) + len(p.Val)) }

// PartitionFunc routes a key to one of n reducers.
type PartitionFunc func(key string, n int) int

// HashPartition is the default partitioner (FNV-1a, like Hadoop's
// HashPartitioner modulo semantics).
func HashPartition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// Emitter receives key/value pairs from map and reduce functions. Emit
// has encoded the value by the time it returns, so the caller may reuse
// one value object across calls and change it after each Emit — Hadoop's
// object-reuse idiom (one Text field per mapper, set and written per
// record). Every emitter the framework hands out keeps that contract: the
// map task's, the combiner's and the reduce task's.
type Emitter interface {
	Emit(key string, value Value) error
}

// EmitterFunc adapts a function to the Emitter interface.
type EmitterFunc func(key string, value Value) error

// Emit calls f.
func (f EmitterFunc) Emit(key string, value Value) error { return f(key, value) }

// Mapper processes one input record: the byte offset of the line within
// its file and the line text (Hadoop TextInputFormat semantics).
type Mapper interface {
	Map(ctx *TaskContext, offset int64, line string, out Emitter) error
}

// Reducer processes one key group. Combiners are Reducers, exactly as in
// Hadoop ("WordCount using the reducer as a combiner").
type Reducer interface {
	Reduce(ctx *TaskContext, key string, values *Values, out Emitter) error
}

// Setupper is an optional lifecycle hook run once per task before any
// records. The efficient side-data pattern from the movie assignment
// ("a Java object that reads the additional file once") lives here.
type Setupper interface {
	Setup(ctx *TaskContext) error
}

// Closer is an optional lifecycle hook run once per task after all
// records, with a live emitter. In-mapper combining flushes its in-memory
// aggregates from Close.
type Closer interface {
	Close(ctx *TaskContext, out Emitter) error
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(ctx *TaskContext, offset int64, line string, out Emitter) error

// Map calls f.
func (f MapperFunc) Map(ctx *TaskContext, offset int64, line string, out Emitter) error {
	return f(ctx, offset, line, out)
}

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(ctx *TaskContext, key string, values *Values, out Emitter) error

// Reduce calls f.
func (f ReducerFunc) Reduce(ctx *TaskContext, key string, values *Values, out Emitter) error {
	return f(ctx, key, values, out)
}
