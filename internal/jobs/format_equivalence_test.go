package jobs_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/serial"
	"repro/internal/vfs"
)

// stageCorpus writes the seed-77 corpus onto fs in the given container
// format and returns its path. Every format carries the identical word
// stream, so WordCount's answer must not depend on the container.
func stageCorpus(t *testing.T, fs vfs.FileSystem, format string) string {
	t.Helper()
	path := datagen.TextPathFor("/in/corpus.txt", format)
	_, _, err := datagen.TextAs(fs, path,
		datagen.TextOpts{Lines: 6000, Seed: 77, SeqBlockBytes: 4 << 10}, format)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWordCountAcrossInputFormats is the file-format subsystem's central
// lesson, pinned as a test: the same corpus in every container yields
// byte-identical WordCount output in both runtimes, but the map-side
// parallelism differs radically — whole-stream gzip collapses the job to
// one map task, while a block-compressed SequenceFile keeps splitting at
// sync markers.
func TestWordCountAcrossInputFormats(t *testing.T) {
	spec, ok := jobs.Lookup("wordcount")
	if !ok {
		t.Fatal("wordcount not registered")
	}
	type result struct {
		maps int
		out  string
	}
	results := map[string]result{}
	for _, format := range datagen.TextFormats() {
		format := format
		t.Run(format, func(t *testing.T) {
			// Distributed: split granularity is the 16 KiB HDFS block.
			c, err := core.New(core.Options{Nodes: 6, Seed: 5, HDFS: hdfs.Config{BlockSize: 16 << 10}})
			if err != nil {
				t.Fatal(err)
			}
			path := stageCorpus(t, c.FS(), format)
			dj, err := spec.Build(jobs.Params{Input: path, Output: "/out"})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Run(dj)
			if err != nil {
				t.Fatal(err)
			}
			clusterOut, err := c.Output("/out")
			if err != nil {
				t.Fatal(err)
			}

			// Standalone over the same bytes.
			local := vfs.NewMemFS()
			spath := stageCorpus(t, local, format)
			sj, err := spec.Build(jobs.Params{Input: spath, Output: "/out"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (&serial.Runner{FS: local, Parallelism: 3}).Run(sj); err != nil {
				t.Fatal(err)
			}
			serialOut, err := mapreduce.ReadOutput(local, "/out")
			if err != nil {
				t.Fatal(err)
			}
			if serialOut != clusterOut {
				t.Fatalf("%s: serial (%d bytes) != cluster (%d bytes)",
					format, len(serialOut), len(clusterOut))
			}
			results[format] = result{maps: rep.MapTasks, out: clusterOut}
		})
	}
	if t.Failed() {
		t.FailNow()
	}

	base := results["text"]
	if base.out == "" {
		t.Fatal("no baseline text output")
	}
	for format, r := range results {
		if r.out != base.out {
			t.Errorf("%s output differs from text baseline (%d vs %d bytes)",
				format, len(r.out), len(base.out))
		}
	}

	// The parallelism lesson: non-splittable codecs cap the job at one
	// map task; splittable containers fan out across blocks.
	if base.maps < 4 {
		t.Errorf("plain text scheduled %d maps, want >= 4", base.maps)
	}
	for _, whole := range []string{"gz", "lzs"} {
		if got := results[whole].maps; got != 1 {
			t.Errorf("%s corpus scheduled %d maps, want exactly 1", whole, got)
		}
	}
	for _, seq := range []string{"seq", "seq-gzip", "seq-lzs"} {
		if got := results[seq].maps; got < 4 {
			t.Errorf("%s corpus scheduled %d maps, want >= 4", seq, got)
		}
	}
}
