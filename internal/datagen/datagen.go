// Package datagen synthesises the course's datasets. The originals
// (complete Shakespeare, the 12 GB Airline on-time database, the 250 MB
// MovieLens 10M ratings, the 10 GB Yahoo! Music ratings, the 171 GB
// Google cluster trace) are external downloads; these generators produce
// files with the same schemas and the statistical structure the
// assignments depend on — Zipf word frequencies, per-carrier delay
// distributions, movies with multiple genres, album/song join tables, and
// task resubmission events — at any size, deterministically from a seed.
//
// Every generator also returns the ground truth of its assignment's
// question, so tests can assert that MapReduce answers are exact.
package datagen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/iofmt"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// writeLines is a small helper: open path on fs, buffer, run the emit
// function, and return bytes written.
func writeLines(fs vfs.FileSystem, path string, emit func(w *bufio.Writer) error) (int64, error) {
	dir, _ := vfs.Split(path)
	if err := fs.Mkdir(dir); err != nil {
		return 0, err
	}
	f, err := fs.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	bw := bufio.NewWriter(cw)
	if err := emit(bw); err != nil {
		f.Close()
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return cw.n, err
	}
	return cw.n, f.Close()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// --- text corpus (WordCount, "complete Shakespeare collection") ---

// textVocabulary is the word stock for the synthetic corpus; ordered by
// intended frequency rank (Zipf head first).
var textVocabulary = []string{
	"the", "and", "to", "of", "i", "you", "a", "my", "in", "that",
	"is", "not", "with", "me", "it", "for", "be", "his", "your", "this",
	"but", "he", "have", "as", "thou", "him", "so", "will", "what", "thy",
	"all", "her", "no", "by", "do", "shall", "if", "are", "we", "thee",
	"on", "lord", "our", "king", "good", "now", "sir", "from", "come", "at",
	"they", "she", "o", "let", "enter", "would", "more", "was", "love", "their",
	"hath", "man", "one", "go", "upon", "like", "say", "know", "may", "us",
	"make", "did", "yet", "should", "must", "why", "had", "out", "then", "see",
	"such", "where", "give", "these", "am", "speak", "or", "too", "can", "how",
	"there", "than", "think", "well", "who", "most", "heart", "death", "night", "life",
	"time", "day", "world", "father", "blood", "eyes", "honour", "sweet", "noble", "crown",
	"sword", "battle", "soldier", "prince", "queen", "duke", "heaven", "soul", "grace", "fortune",
}

// wordsPerLine is the length of every corpus line.
const wordsPerLine = 10

// TextOpts sizes the corpus generator.
type TextOpts struct {
	Lines int
	Seed  int64
	// SeqBlockBytes caps raw bytes per SequenceFile block for the seq
	// formats (default 8 KiB — small blocks mean many sync points, so
	// even lab-sized corpora split several ways).
	SeqBlockBytes int
}

// TextTruth is the ground truth for the WordCount assignments.
type TextTruth struct {
	TotalWords   int64
	TopWord      string
	TopWordCount int64
	Counts       map[string]int64
}

// textStream generates the corpus lines and their ground truth — the
// single deterministic token stream every Text* format shares, so the
// same seed yields the same words whatever container they land in.
func textStream(opts TextOpts) ([]string, *TextTruth) {
	if opts.Lines <= 0 {
		opts.Lines = 1000
	}
	rng := sim.NewRand(opts.Seed).Derive("text")
	zipf := rng.Zipf(1.1, uint64(len(textVocabulary)))
	// Tokens are counted by vocabulary rank, a slice index rather than a
	// map assign per token; the map is built once from the counts.
	counts := make([]int64, len(textVocabulary))
	lines := make([]string, opts.Lines)
	var b strings.Builder
	for i := 0; i < opts.Lines; i++ {
		b.Reset()
		for j := 0; j < wordsPerLine; j++ {
			rank := zipf.Uint64()
			counts[rank]++
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(textVocabulary[rank])
		}
		lines[i] = b.String()
	}
	truth := &TextTruth{Counts: map[string]int64{}}
	for rank, c := range counts {
		if c > 0 {
			truth.Counts[textVocabulary[rank]] += c
			truth.TotalWords += c
		}
	}
	for word, c := range truth.Counts {
		if c > truth.TopWordCount || (c == truth.TopWordCount && word < truth.TopWord) {
			truth.TopWord, truth.TopWordCount = word, c
		}
	}
	return lines, truth
}

// Text writes a Zipf-distributed corpus and returns its truth.
func Text(fs vfs.FileSystem, path string, opts TextOpts) (*TextTruth, int64, error) {
	return TextAs(fs, path, opts, "text")
}

// TextAs writes the same seed-for-seed corpus as Text in the named
// container format, so labs and benches can compare formats on
// identical data:
//
//	"text"              plain newline-delimited lines
//	"gz", "lzs"         the whole stream compressed with that codec —
//	                    not splittable, so jobs get exactly one map task
//	"seq"               an uncompressed SequenceFile, one record per
//	                    line (empty key), splittable at sync markers
//	"seq-gzip","seq-lzs" a block-compressed SequenceFile — compressed
//	                    AND splittable, the format lesson in one file
//
// The caller chooses the path; TextPathFor builds the conventional one.
func TextAs(fs vfs.FileSystem, path string, opts TextOpts, format string) (*TextTruth, int64, error) {
	lines, truth := textStream(opts)
	switch format {
	case "", "text":
		n, err := writeLines(fs, path, func(w *bufio.Writer) error {
			for _, line := range lines {
				if _, err := w.WriteString(line); err != nil {
					return err
				}
				if err := w.WriteByte('\n'); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, n, err
		}
		return truth, n, nil
	case "gz", "lzs":
		codec, err := iofmt.ByName(map[string]string{"gz": "gzip", "lzs": "lzs"}[format])
		if err != nil {
			return nil, 0, err
		}
		var raw bytes.Buffer
		for _, line := range lines {
			raw.WriteString(line)
			raw.WriteByte('\n')
		}
		enc, err := codec.Compress(raw.Bytes())
		if err != nil {
			return nil, 0, err
		}
		n, err := writeBytes(fs, path, enc)
		return truth, n, err
	case "seq", "seq-gzip", "seq-lzs":
		codecName := strings.TrimPrefix(format, "seq")
		codecName = strings.TrimPrefix(codecName, "-")
		codec, err := iofmt.ByName(codecName)
		if err != nil {
			return nil, 0, err
		}
		blockBytes := opts.SeqBlockBytes
		if blockBytes <= 0 {
			blockBytes = 8 << 10
		}
		var buf bytes.Buffer
		sw, err := iofmt.NewSeqWriter(&buf, iofmt.SeqWriterOptions{Codec: codec, BlockBytes: blockBytes})
		if err != nil {
			return nil, 0, err
		}
		for _, line := range lines {
			if err := sw.Append(nil, []byte(line)); err != nil {
				return nil, 0, err
			}
		}
		if err := sw.Close(); err != nil {
			return nil, 0, err
		}
		n, err := writeBytes(fs, path, buf.Bytes())
		return truth, n, err
	default:
		return nil, 0, fmt.Errorf("datagen: unknown text format %q", format)
	}
}

// TextFormats lists the containers TextAs understands.
func TextFormats() []string {
	return []string{"text", "gz", "lzs", "seq", "seq-gzip", "seq-lzs"}
}

// TextPathFor names a corpus file conventionally for a format: the base
// path as-is for text, with the codec suffix appended for compressed
// text, and with the extension swapped for ".seq" for the SequenceFile
// formats.
func TextPathFor(base, format string) string {
	switch format {
	case "gz", "lzs":
		return base + "." + format
	case "seq", "seq-gzip", "seq-lzs":
		return strings.TrimSuffix(base, ".txt") + ".seq"
	default:
		return base
	}
}

// writeBytes writes an already-encoded file under path, creating the
// parent directory.
func writeBytes(fs vfs.FileSystem, path string, data []byte) (int64, error) {
	dir, _ := vfs.Split(path)
	if err := fs.Mkdir(dir); err != nil {
		return 0, err
	}
	if err := vfs.WriteFile(fs, path, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}
