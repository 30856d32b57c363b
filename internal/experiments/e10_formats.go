package experiments

import (
	"fmt"
	"time"

	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
)

// E10Point is one container format's outcome for the identical corpus.
type E10Point struct {
	Format    string
	FileBytes int64
	MapTasks  int
	BytesRead int64
	Makespan  time.Duration
}

// E10Result is the structured outcome of E10.
type E10Result struct {
	// Points covers text, whole-stream gzip and block-compressed
	// SequenceFile, in that order.
	Points []E10Point
	// Shuffle-compression ablation on the text corpus.
	ShuffleRawBytes  int64
	ShuffleWireBytes int64
	MakespanPlain    time.Duration
	MakespanComp     time.Duration
}

// e10Format finds a format's point.
func (r *E10Result) e10Format(name string) E10Point {
	for _, p := range r.Points {
		if p.Format == name {
			return p
		}
	}
	return E10Point{}
}

// E10Formats runs WordCount over the same seed-for-seed corpus in three
// containers — plain text, whole-stream gzip, block-compressed
// SequenceFile — and measures the trade the formats lecture turns on:
// gzip shrinks storage but collapses the job to one map task, while the
// SequenceFile keeps both the compression and the parallelism. A second
// ablation toggles shuffle compression and measures the wire bytes it
// saves.
func E10Formats(seed int64) (*Result, error) {
	const lines = 20000
	res := &E10Result{}
	for _, format := range []string{"text", "gz", "seq-gzip"} {
		c, err := expCluster(seed, 8, 64<<10, expMRConfig())
		if err != nil {
			return nil, err
		}
		path := datagen.TextPathFor("/in/corpus.txt", format)
		_, n, err := datagen.TextAs(c.FS(), path,
			datagen.TextOpts{Lines: lines, Seed: seed, SeqBlockBytes: 16 << 10}, format)
		if err != nil {
			return nil, err
		}
		rep, err := c.Run(jobs.WordCount(path, "/out", true))
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, E10Point{
			Format:    format,
			FileBytes: n,
			MapTasks:  rep.MapTasks,
			BytesRead: rep.Counters.Get(mapreduce.CtrHDFSBytesRead),
			Makespan:  rep.Makespan(),
		})
	}

	// Shuffle ablation: same text corpus and job, map outputs shipped raw
	// vs gzip-compressed across the simulated network.
	for _, compress := range []bool{false, true} {
		cfg := expMRConfig()
		cfg.CompressShuffle = compress
		c, err := expCluster(seed, 8, 64<<10, cfg)
		if err != nil {
			return nil, err
		}
		if _, _, err := datagen.TextAs(c.FS(), "/in/corpus.txt",
			datagen.TextOpts{Lines: lines, Seed: seed}, "text"); err != nil {
			return nil, err
		}
		rep, err := c.Run(jobs.WordCount("/in/corpus.txt", "/out", true))
		if err != nil {
			return nil, err
		}
		if compress {
			res.ShuffleWireBytes = rep.ShuffleBytes()
			res.MakespanComp = rep.Makespan()
		} else {
			res.ShuffleRawBytes = rep.ShuffleBytes()
			res.MakespanPlain = rep.Makespan()
		}
	}

	text, gz, seq := res.e10Format("text"), res.e10Format("gz"), res.e10Format("seq-gzip")
	out := &Result{
		ID:     "E10",
		Title:  "File formats: storage, parallelism and makespan for the same corpus",
		Header: []string{"format", "stored size", "map tasks", "bytes read", "makespan"},
		Raw:    res,
		Headline: map[string]float64{
			"gz-map-tasks":          float64(gz.MapTasks),
			"seq-parallelism-x":     float64(seq.MapTasks) / float64(gz.MapTasks),
			"seq-storage-savings-x": float64(text.FileBytes) / float64(seq.FileBytes),
			"gz-vs-seq-makespan-x":  float64(gz.Makespan) / float64(seq.Makespan),
			"seq-read-reduction-x":  float64(text.BytesRead) / float64(seq.BytesRead),
			"shuffle-compression-x": float64(res.ShuffleRawBytes) / float64(res.ShuffleWireBytes),
		},
	}
	for _, p := range res.Points {
		out.Rows = append(out.Rows, []string{
			p.Format,
			fmtMB(p.FileBytes),
			fmt.Sprintf("%d", p.MapTasks),
			fmtMB(p.BytesRead),
			fmtDur(p.Makespan),
		})
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("shuffle compression: %s raw vs %s on the wire (%.2fx), makespan %s vs %s",
			fmtMB(res.ShuffleRawBytes), fmtMB(res.ShuffleWireBytes),
			float64(res.ShuffleRawBytes)/float64(res.ShuffleWireBytes),
			fmtDur(res.MakespanPlain), fmtDur(res.MakespanComp)))
	return out, nil
}
