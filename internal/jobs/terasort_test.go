package jobs_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/serial"
	"repro/internal/vfs"
)

func TestTeraSortGlobalOrderSerial(t *testing.T) {
	fs := vfs.NewMemFS()
	rows, _, err := datagen.Sortable(fs, "/in/records.txt", datagen.SortableOpts{Rows: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	job, err := jobs.TeraSort(fs, "/in", "/out", 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&serial.Runner{FS: fs, Parallelism: 3}).Run(job); err != nil {
		t.Fatal(err)
	}
	// ReadOutput concatenates parts in name order; with the range
	// partitioner the result must be globally sorted.
	out, err := mapreduce.ReadOutput(fs, "/out")
	if err != nil {
		t.Fatal(err)
	}
	n, err := jobs.ValidateSorted(out)
	if err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("output rows = %d, want %d", n, rows)
	}
	// Multiset equality: sorted(input lines) == output lines.
	in, _ := vfs.ReadFile(fs, "/in/records.txt")
	inLines := strings.Split(strings.TrimSpace(string(in)), "\n")
	sort.Strings(inLines)
	outLines := strings.Split(strings.TrimSpace(out), "\n")
	if len(inLines) != len(outLines) {
		t.Fatalf("line counts differ: %d vs %d", len(inLines), len(outLines))
	}
	for i := range inLines {
		if inLines[i] != outLines[i] {
			t.Fatalf("record multiset differs at %d: %q vs %q", i, inLines[i], outLines[i])
		}
	}
}

func TestTeraSortBalancedPartitions(t *testing.T) {
	fs := vfs.NewMemFS()
	if _, _, err := datagen.Sortable(fs, "/in/r.txt", datagen.SortableOpts{Rows: 8000, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	const reducers = 8
	job, err := jobs.TeraSort(fs, "/in", "/out", reducers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&serial.Runner{FS: fs}).Run(job); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.List("/out")
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for _, fi := range infos {
		if strings.HasPrefix(fi.Name(), "part-") {
			sizes = append(sizes, fi.Size)
		}
	}
	if len(sizes) != reducers {
		t.Fatalf("parts = %d", len(sizes))
	}
	var min, max int64 = 1 << 62, 0
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	// Quantile sampling should balance partitions within ~3x.
	if min == 0 || max > 3*min {
		t.Fatalf("partitions unbalanced: min=%d max=%d", min, max)
	}
}

func TestTeraSortOnCluster(t *testing.T) {
	c, err := core.New(core.Options{Nodes: 6, Seed: 8, HDFS: hdfs.Config{BlockSize: 16 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := datagen.Sortable(c.FS(), "/in/r.txt", datagen.SortableOpts{Rows: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	job, err := jobs.TeraSort(c.FS(), "/in", "/out", 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Output("/out")
	if err != nil {
		t.Fatal(err)
	}
	n, err := jobs.ValidateSorted(out)
	if err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("rows = %d, want %d", n, rows)
	}
	if rep.ReduceTasks != 5 {
		t.Fatalf("reduce tasks = %d", rep.ReduceTasks)
	}
}

func TestRangePartitionMonotone(t *testing.T) {
	splits := []string{"c", "g", "p"}
	part := jobs.RangePartition(splits)
	prev := -1
	for _, k := range []string{"a", "c", "d", "g", "h", "p", "z"} {
		p := part(k, 4)
		if p < prev {
			t.Fatalf("partition not monotone at %q: %d < %d", k, p, prev)
		}
		if p < 0 || p > 3 {
			t.Fatalf("partition out of range: %d", p)
		}
		prev = p
	}
}

func TestSecondarySortGrouping(t *testing.T) {
	// Composite keys "carrier#date" with GroupKey on the carrier: each
	// reduce group sees one carrier's records in date order — the first
	// value per group is the earliest flight.
	fs := vfs.NewMemFS()
	data := strings.Join([]string{
		"AA\t2008-03-01\t10",
		"DL\t2008-01-15\t5",
		"AA\t2008-01-02\t7",
		"DL\t2008-02-20\t9",
		"AA\t2008-02-11\t3",
	}, "\n") + "\n"
	if err := vfs.WriteFile(fs, "/in/f.tsv", []byte(data)); err != nil {
		t.Fatal(err)
	}
	job := &mapreduce.Job{
		Name: "first-flight",
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, off int64, line string, out mapreduce.Emitter) error {
				f := strings.Split(line, "\t")
				if len(f) != 3 {
					return nil
				}
				// Composite key: natural key + sort field.
				return out.Emit(f[0]+"#"+f[1], mapreduce.Text(f[2]))
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key string, values *mapreduce.Values, out mapreduce.Emitter) error {
				// First value of the group = earliest date, by sort order.
				v, ok, err := values.Next()
				if err != nil || !ok {
					return err
				}
				carrier := strings.SplitN(key, "#", 2)[0]
				date := strings.SplitN(key, "#", 2)[1]
				return out.Emit(carrier, mapreduce.Text(date+"="+v.String()))
			})
		},
		DecodeValue: mapreduce.DecodeText,
		GroupKey: func(key string) string {
			return strings.SplitN(key, "#", 2)[0]
		},
		Partition: func(key string, n int) int {
			return mapreduce.HashPartition(strings.SplitN(key, "#", 2)[0], n)
		},
		NumReducers: 2,
		InputPaths:  []string{"/in"},
		OutputPath:  "/out",
	}
	if _, err := (&serial.Runner{FS: fs}).Run(job); err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadOutput(fs, "/out")
	if err != nil {
		t.Fatal(err)
	}
	got := parseKV(out)
	if got["AA"] != "2008-01-02=7" {
		t.Fatalf("AA first flight = %q", got["AA"])
	}
	if got["DL"] != "2008-01-15=5" {
		t.Fatalf("DL first flight = %q", got["DL"])
	}
}
