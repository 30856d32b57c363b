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

// stageFixture writes the dataset a registry job needs onto fs and
// returns the job params.
func stageFixture(t *testing.T, fs vfs.FileSystem, jobName string) jobs.Params {
	t.Helper()
	p := jobs.Params{Output: "/out"}
	var err error
	switch jobName {
	case "wordcount", "wordcount-combiner", "topword":
		_, _, err = datagen.Text(fs, "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 77})
		p.Input = "/in"
	case "airline-avg-plain", "airline-avg-combiner", "airline-avg-inmapper":
		_, _, err = datagen.Airline(fs, "/in/ontime.csv", datagen.AirlineOpts{Rows: 2500, Seed: 77})
		p.Input = "/in"
	case "movie-genre-stats", "movie-genre-stats-naive", "most-active-user":
		_, _, err = datagen.Movies(fs, "/ml", datagen.MovieOpts{Movies: 40, Users: 80, Ratings: 2500, Seed: 77})
		p.Input = "/ml/ratings.dat"
		p.Side = "/ml/movies.dat"
	case "top-album":
		_, _, err = datagen.Music(fs, "/ym", datagen.MusicOpts{Songs: 80, Albums: 12, Users: 50, Ratings: 3000, Seed: 77})
		p.Input = "/ym/ratings.tsv"
		p.Side = "/ym/songs.tsv"
	case "trace-max-resubmissions":
		_, _, err = datagen.Trace(fs, "/in/events.csv", datagen.TraceOpts{Jobs: 15, MeanTasks: 8, Seed: 77})
		p.Input = "/in"
	default:
		t.Fatalf("no fixture for job %q", jobName)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEveryRegistryJobSerialEqualsDistributed is the repository's central
// equivalence property, run over the whole course catalogue: for every
// job, the standalone runner and the 6-node HDFS cluster produce
// byte-identical outputs.
func TestEveryRegistryJobSerialEqualsDistributed(t *testing.T) {
	for _, spec := range jobs.Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			// Standalone.
			local := vfs.NewMemFS()
			p := stageFixture(t, local, spec.Name)
			sj, err := spec.Build(p)
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

			// Distributed, same generator seed -> same input bytes.
			c, err := core.New(core.Options{Nodes: 6, Seed: 5, HDFS: hdfs.Config{BlockSize: 32 << 10}})
			if err != nil {
				t.Fatal(err)
			}
			p2 := stageFixture(t, c.FS(), spec.Name)
			dj, err := spec.Build(p2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(dj); err != nil {
				t.Fatal(err)
			}
			clusterOut, err := c.Output("/out")
			if err != nil {
				t.Fatal(err)
			}

			if serialOut != clusterOut {
				t.Fatalf("outputs differ for %s:\nserial  %d bytes\ncluster %d bytes\nserial head: %.200s\ncluster head: %.200s",
					spec.Name, len(serialOut), len(clusterOut), serialOut, clusterOut)
			}
		})
	}
}
