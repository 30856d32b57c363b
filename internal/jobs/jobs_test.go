package jobs_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func runSerial(t *testing.T, fs vfs.FileSystem, job *mapreduce.Job) (*mapreduce.Counters, string) {
	t.Helper()
	rep, err := (&serial.Runner{FS: fs, Parallelism: 4}).Run(job)
	if err != nil {
		t.Fatalf("job %s: %v", job.Name, err)
	}
	out, err := mapreduce.ReadOutput(fs, job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return rep, out
}

// parseKV parses "key\tvalue" output lines into a map.
func parseKV(out string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		f := strings.SplitN(line, "\t", 2)
		if len(f) == 2 {
			m[f[0]] = f[1]
		}
	}
	return m
}

func TestWordCountMatchesTruth(t *testing.T) {
	fs := vfs.NewMemFS()
	truth, _, err := datagen.Text(fs, "/in/corpus.txt", datagen.TextOpts{Lines: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, out := runSerial(t, fs, jobs.WordCount("/in", "/out", false))
	got := parseKV(out)
	if len(got) != len(truth.Counts) {
		t.Fatalf("distinct words: got %d, truth %d", len(got), len(truth.Counts))
	}
	for w, c := range truth.Counts {
		if got[w] != strconv.FormatInt(c, 10) {
			t.Fatalf("count[%s] = %s, truth %d", w, got[w], c)
		}
	}
}

func TestWordCountCombinerSameAnswer(t *testing.T) {
	fs := vfs.NewMemFS()
	if _, _, err := datagen.Text(fs, "/in/corpus.txt", datagen.TextOpts{Lines: 300, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	repPlain, outPlain := runSerial(t, fs, jobs.WordCount("/in", "/out-plain", false))
	repComb, outComb := runSerial(t, fs, jobs.WordCount("/in", "/out-comb", true))
	if outPlain != outComb {
		t.Fatal("combiner changed word counts")
	}
	if repComb.Get(mapreduce.CtrCombineInputRecords) == 0 {
		t.Fatal("combiner never ran")
	}
	// Map-side output volume must shrink.
	if repComb.Get(mapreduce.CtrSpilledRecords) >= repPlain.Get(mapreduce.CtrSpilledRecords) {
		t.Fatal("combiner did not reduce spilled records")
	}
}

func TestTopWordMatchesTruth(t *testing.T) {
	fs := vfs.NewMemFS()
	truth, _, err := datagen.Text(fs, "/in/corpus.txt", datagen.TextOpts{Lines: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, out := runSerial(t, fs, jobs.TopWord("/in", "/out"))
	got := parseKV(out)
	if len(got) != 1 {
		t.Fatalf("topword emitted %d lines: %q", len(got), out)
	}
	if got[truth.TopWord] != strconv.FormatInt(truth.TopWordCount, 10) {
		t.Fatalf("topword = %v, truth %s=%d", got, truth.TopWord, truth.TopWordCount)
	}
}

func airlineFixture(t *testing.T) (vfs.FileSystem, *datagen.AirlineTruth) {
	t.Helper()
	fs := vfs.NewMemFS()
	truth, _, err := datagen.Airline(fs, "/in/ontime.csv", datagen.AirlineOpts{Rows: 4000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return fs, truth
}

func checkAirlineOutput(t *testing.T, out string, truth *datagen.AirlineTruth) {
	t.Helper()
	got := parseKV(out)
	if len(got) != len(truth.Counts) {
		t.Fatalf("carriers: got %d, truth %d", len(got), len(truth.Counts))
	}
	for code := range truth.Counts {
		v, err := strconv.ParseFloat(got[code], 64)
		if err != nil {
			t.Fatalf("bad avg for %s: %q", code, got[code])
		}
		if math.Abs(v-truth.Avg(code)) > 1e-9 {
			t.Fatalf("avg[%s] = %v, truth %v", code, v, truth.Avg(code))
		}
	}
}

func TestAirlineVariantsAllMatchTruth(t *testing.T) {
	builders := map[string]func(in, out string) *mapreduce.Job{
		"plain":    jobs.AirlineAvgDelayPlain,
		"combiner": jobs.AirlineAvgDelayCombiner,
		"inmapper": jobs.AirlineAvgDelayInMapper,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			fs, truth := airlineFixture(t)
			_, out := runSerial(t, fs, build("/in", "/out"))
			checkAirlineOutput(t, out, truth)
		})
	}
}

func TestAirlineVariantTradeoffs(t *testing.T) {
	fs, _ := airlineFixture(t)
	repPlain, _ := runSerial(t, fs, jobs.AirlineAvgDelayPlain("/in", "/o1"))
	repComb, _ := runSerial(t, fs, jobs.AirlineAvgDelayCombiner("/in", "/o2"))
	repIMC, _ := runSerial(t, fs, jobs.AirlineAvgDelayInMapper("/in", "/o3"))

	spill := func(r *mapreduce.Counters) int64 { return r.Get(mapreduce.CtrSpilledRecords) }
	// Network volume: plain >> combiner >= in-mapper (per-split key cardinality bound).
	if spill(repComb) >= spill(repPlain) || spill(repIMC) >= spill(repPlain) {
		t.Fatalf("combining did not shrink map output: plain=%d comb=%d imc=%d",
			spill(repPlain), spill(repComb), spill(repIMC))
	}
	// Memory: in-mapper combining holds per-key state; plain holds none.
	if repIMC.Get(mapreduce.CtrMapperMemoryPeak) == 0 {
		t.Fatal("in-mapper combining reported no memory use")
	}
	if repPlain.Get(mapreduce.CtrMapperMemoryPeak) != 0 {
		t.Fatal("plain variant should report no task-held memory")
	}
}

func moviesFixture(t *testing.T) (vfs.FileSystem, *datagen.MovieTruth) {
	t.Helper()
	fs := vfs.NewMemFS()
	truth, _, err := datagen.Movies(fs, "/ml", datagen.MovieOpts{Movies: 60, Users: 120, Ratings: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return fs, truth
}

func TestMovieGenreStatsMatchesTruth(t *testing.T) {
	for _, cached := range []bool{true, false} {
		name := "cached"
		if !cached {
			name = "naive"
		}
		t.Run(name, func(t *testing.T) {
			fs, truth := moviesFixture(t)
			job := jobs.MovieGenreStats("/ml/ratings.dat", "/ml/movies.dat", "/out", cached)
			rep, out := runSerial(t, fs, job)
			got := parseKV(out)
			for _, g := range datagen.Genres {
				want := truth.GenreCount[g]
				if want == 0 {
					continue
				}
				v, ok := got[g]
				if !ok {
					t.Fatalf("genre %s missing from output", g)
				}
				var count int64
				var avg, min, max float64
				if _, err := fmt.Sscanf(v, "count=%d avg=%f min=%g max=%g", &count, &avg, &min, &max); err != nil {
					t.Fatalf("bad stats %q: %v", v, err)
				}
				if count != want {
					t.Fatalf("genre %s count = %d, truth %d", g, count, want)
				}
				if wantAvg := truth.GenreSum[g] / float64(want); math.Abs(avg-wantAvg) > 1e-3 {
					t.Fatalf("genre %s avg = %v, truth %v", g, avg, wantAvg)
				}
			}
			// The access-pattern counters must expose the difference.
			opens, maps := rep.Get(mapreduce.CtrSideFileOpens), rep.Get(mapreduce.CtrLaunchedMaps)
			if cached && opens != maps {
				t.Fatalf("cached variant opened side file %d times for %d tasks", opens, maps)
			}
			if !cached && opens <= maps {
				t.Fatalf("naive variant opened side file only %d times", opens)
			}
		})
	}
}

func TestNaiveSideDataReadsFarMoreBytes(t *testing.T) {
	fs, _ := moviesFixture(t)
	repC, _ := runSerial(t, fs, jobs.MovieGenreStats("/ml/ratings.dat", "/ml/movies.dat", "/oc", true))
	repN, _ := runSerial(t, fs, jobs.MovieGenreStats("/ml/ratings.dat", "/ml/movies.dat", "/on", false))
	cb := repC.Get(mapreduce.CtrSideFileBytesRead)
	nb := repN.Get(mapreduce.CtrSideFileBytesRead)
	if nb < 100*cb {
		t.Fatalf("naive side reads (%d B) should dwarf cached (%d B)", nb, cb)
	}
}

func TestMostActiveUserMatchesTruth(t *testing.T) {
	fs, truth := moviesFixture(t)
	_, out := runSerial(t, fs, jobs.MostActiveUser("/ml/ratings.dat", "/ml/movies.dat", "/out"))
	got := parseKV(out)
	if len(got) != 1 {
		t.Fatalf("most-active-user emitted %d lines: %q", len(got), out)
	}
	wantKey := strconv.Itoa(truth.TopUser)
	v, ok := got[wantKey]
	if !ok {
		t.Fatalf("winner = %v, truth user %d", got, truth.TopUser)
	}
	var ratings int64
	var fav string
	if _, err := fmt.Sscanf(v, "ratings=%d favorite=%s", &ratings, &fav); err != nil {
		t.Fatalf("bad value %q: %v", v, err)
	}
	if ratings != truth.TopUserCount {
		t.Fatalf("ratings = %d, truth %d", ratings, truth.TopUserCount)
	}
	if fav != truth.FavGenre {
		t.Fatalf("favorite = %s, truth %s", fav, truth.FavGenre)
	}
}

func TestTopAlbumMatchesTruth(t *testing.T) {
	fs := vfs.NewMemFS()
	truth, _, err := datagen.Music(fs, "/ym", datagen.MusicOpts{Songs: 120, Albums: 15, Users: 80, Ratings: 6000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	_, out := runSerial(t, fs, jobs.TopAlbum("/ym/ratings.tsv", "/ym/songs.tsv", "/out"))
	got := parseKV(out)
	if len(got) != 1 {
		t.Fatalf("top-album emitted %d lines: %q", len(got), out)
	}
	wantKey := strconv.Itoa(truth.BestAlbum)
	v, ok := got[wantKey]
	if !ok {
		t.Fatalf("winner = %v, truth album %d (avg %.2f)", got, truth.BestAlbum, truth.BestAvg)
	}
	var sum float64
	var count int64
	var avg float64
	if _, err := fmt.Sscanf(v, "sum=%g count=%d avg=%f", &sum, &count, &avg); err != nil {
		t.Fatalf("bad value %q: %v", v, err)
	}
	if math.Abs(avg-truth.BestAvg) > 1e-3 { // value renders with 4 decimals
		t.Fatalf("avg = %v, truth %v", avg, truth.BestAvg)
	}
}

func TestTraceMaxResubmissionsMatchesTruth(t *testing.T) {
	fs := vfs.NewMemFS()
	truth, _, err := datagen.Trace(fs, "/in/task_events.csv", datagen.TraceOpts{Jobs: 30, MeanTasks: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, out := runSerial(t, fs, jobs.TraceMaxResubmissions("/in", "/out"))
	jobID, resub, ok := jobs.ParseTraceAnswer(out)
	if !ok {
		t.Fatalf("unparseable answer %q", out)
	}
	if jobID != truth.MaxJob || resub != truth.MaxResub {
		t.Fatalf("answer job=%d resub=%d, truth job=%d resub=%d", jobID, resub, truth.MaxJob, truth.MaxResub)
	}
}

func TestRegistryBuildsEveryJob(t *testing.T) {
	specs := jobs.Registry()
	if len(specs) < 10 {
		t.Fatalf("registry has only %d jobs", len(specs))
	}
	for _, s := range specs {
		p := jobs.Params{Input: "/in", Output: "/out"}
		if s.NeedsSide {
			p.Side = "/side.dat"
		}
		j, err := s.Build(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := j.Validate(); err != nil {
			t.Fatalf("%s: built invalid job: %v", s.Name, err)
		}
		if s.NeedsSide {
			if _, err := s.Build(jobs.Params{Input: "/in", Output: "/out"}); err == nil {
				t.Fatalf("%s: accepted missing side file", s.Name)
			}
		}
	}
	if _, ok := jobs.Lookup("wordcount"); !ok {
		t.Fatal("lookup failed for wordcount")
	}
	if _, ok := jobs.Lookup("nope"); ok {
		t.Fatal("lookup succeeded for unknown job")
	}
}

// TestJobsRunOnCluster runs a representative subset distributed and
// checks agreement with the serial answers — the "rerun the same jar on
// HDFS" exercise of assignment 2.
func TestJobsRunOnCluster(t *testing.T) {
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(8, 1))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Seed: 9, Config: hdfs.Config{BlockSize: 32 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	mc := mrcluster.NewMRCluster(dfs, mrcluster.Config{}, 10)
	client := dfs.Client(hdfs.GatewayNode)

	// Stage datasets into HDFS.
	airTruth, _, err := datagen.Airline(client, "/data/airline/ontime.csv", datagen.AirlineOpts{Rows: 3000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	musTruth, _, err := datagen.Music(client, "/data/ym", datagen.MusicOpts{Ratings: 5000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := mc.Run(jobs.AirlineAvgDelayCombiner("/data/airline", "/out/air"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadOutput(client, "/out/air")
	if err != nil {
		t.Fatal(err)
	}
	checkAirlineOutput(t, out, airTruth)
	if rep.Counters.Get(mapreduce.CtrCombineInputRecords) == 0 {
		t.Fatal("combiner did not run on cluster")
	}

	if _, err := mc.Run(jobs.TopAlbum("/data/ym/ratings.tsv", "/data/ym/songs.tsv", "/out/album")); err != nil {
		t.Fatal(err)
	}
	aout, err := mapreduce.ReadOutput(client, "/out/album")
	if err != nil {
		t.Fatal(err)
	}
	got := parseKV(aout)
	if _, ok := got[strconv.Itoa(musTruth.BestAlbum)]; !ok {
		t.Fatalf("cluster top-album = %v, truth %d", got, musTruth.BestAlbum)
	}
}
