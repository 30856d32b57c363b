package mapreduce

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vfs"
)

func benchPairs(n int) []Pair {
	rng := rand.New(rand.NewSource(1))
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{
			Key: fmt.Sprintf("key-%06d", rng.Intn(n/4+1)),
			Val: Int64(1).EncodeValue(),
		}
	}
	return pairs
}

func BenchmarkSortPairs(b *testing.B) {
	src := benchPairs(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := append([]Pair(nil), src...)
		SortPairs(pairs)
	}
	b.SetBytes(int64(len(src)) * 20)
}

func BenchmarkMergeSortedRuns(b *testing.B) {
	var runs [][]Pair
	for r := 0; r < 16; r++ {
		run := benchPairs(5000)
		SortPairs(run)
		runs = append(runs, run)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeSortedRuns(runs)
	}
}

func BenchmarkRecordsInRange(b *testing.B) {
	var buf strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&buf, "line number %d with some payload text\n", i)
	}
	data := []byte(buf.String())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RecordsInRange(data, 0, 0, int64(len(data)))
	}
}

// cold gives every task a scratch of its own, as a job's first task and
// the package-level ExecuteMap do; warm reuses one, as every later task of
// a job does.
func BenchmarkExecuteMapWordCount(b *testing.B) {
	job := wordCountJob()
	fs := vfs.NewMemFS()
	var records []Record
	var bytes int64
	for i := 0; i < 5000; i++ {
		line := "the quick brown fox jumps over the lazy dog"
		records = append(records, Record{Offset: bytes, Line: line})
		bytes += int64(len(line)) + 1
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(bytes)
			b.ReportAllocs()
			scratch := new(MapScratch)
			for i := 0; i < b.N; i++ {
				if !warm {
					scratch = new(MapScratch)
				}
				ctx := NewTaskContext("bench", "m0", fs, job)
				if _, err := scratch.ExecuteMap(ctx, job, records); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExecuteMapWithCombiner(b *testing.B) {
	job := wordCountJob()
	job.NewCombiner = job.NewReducer
	fs := vfs.NewMemFS()
	var records []Record
	for i := 0; i < 5000; i++ {
		records = append(records, Record{Offset: int64(i * 45), Line: "the quick brown fox jumps over the lazy dog"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := NewTaskContext("bench", "m0", fs, job)
		if _, err := ExecuteMap(ctx, job, records); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashPartition(b *testing.B) {
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashPartition(keys[i%len(keys)], 16)
	}
}

// BenchmarkExecuteReduce is one TeraSort-shaped reduce task (8 runs, 100 k
// pairs, identity reducer, text part) on a warm scratch, as every reduce
// attempt of a job after the first runs.
func BenchmarkExecuteReduce(b *testing.B) {
	runs := teraRuns(rand.New(rand.NewSource(1)), 8, 100_000)
	job := identityJob()
	fs := vfs.NewMemFS()
	var bytes int64
	for _, run := range runs {
		for _, p := range run {
			bytes += p.Bytes()
		}
	}
	var s ReduceScratch
	reducePart(b, &s, NewTaskContext(job.Name, "r", fs, job), job, runs)
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reducePart(b, &s, NewTaskContext(job.Name, "r", fs, job), job, runs)
	}
}
