package mapreduce

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/iofmt"
	"repro/internal/vfs"
)

// Format-aware split reading. Both runtimes fetch input through this one
// dispatch — the serial runner over a plain filesystem, the distributed
// runtime over metered HDFS ranged reads — so a Job behaves identically
// on either, whatever container its input sits in.

// ReadStats meters one split read.
type ReadStats struct {
	// BytesRead is what was fetched from storage — the compressed form
	// for compressed inputs, the fetch window for plain text.
	BytesRead int64
	// BytesDecoded is the logical volume delivered to the mapper after
	// decompression (equal to BytesRead for plain text).
	BytesDecoded int64
	// Compressed reports whether decode CPU was spent on this split.
	Compressed bool
}

// ReadSplit reads the records of one split through a ranged reader,
// dispatching on the file's format:
//
//   - plain text: fetch the split's window and cut line records by the
//     TextInputFormat boundary rule;
//   - whole-stream compressed text (.gz, .lzs): the planner guarantees
//     the split covers the whole file — inflate it and read every line;
//   - SequenceFile (.seq): decode exactly the blocks whose sync marker
//     starts inside the split, rendering each record as a text line.
func ReadSplit(read iofmt.RangeReaderFunc, split FileSplit) ([]Record, ReadStats, error) {
	kind, codec := iofmt.DetectPath(split.Path)
	switch {
	case kind == iofmt.KindSeq:
		return readSeqSplit(read, split)
	case codec != nil:
		return readCompressedText(read, split, codec)
	default:
		return readTextSplit(read, split)
	}
}

// lineLookahead is how far past a split's end a text split's first fetch
// reaches to complete the split's last record. A record that runs further
// costs more fetches; it is never cut short.
const lineLookahead = 1 << 20

func readTextSplit(read iofmt.RangeReaderFunc, split FileSplit) ([]Record, ReadStats, error) {
	fetchStart := split.Offset
	if fetchStart > 0 {
		fetchStart-- // look-back byte: detect a record starting exactly at Offset
	}
	fetchEnd := min(split.End()+lineLookahead, split.FileSize)
	window, err := read(fetchStart, fetchEnd-fetchStart)
	if err != nil {
		return nil, ReadStats{}, err
	}
	// Fetch on, doubling the window, until a newline at or after the
	// split's last byte ends its last record, or the file does.
	last := split.End() - 1 - fetchStart
	for fetchEnd < split.FileSize && int64(len(window)) > last && bytes.IndexByte(window[last:], '\n') < 0 {
		more, err := read(fetchEnd, min(fetchEnd-fetchStart, split.FileSize-fetchEnd))
		if err != nil {
			return nil, ReadStats{}, err
		}
		if len(more) == 0 {
			break
		}
		// The full slice expression copies: window may alias the reader's
		// own buffer.
		window = append(window[:len(window):len(window)], more...)
		fetchEnd += int64(len(more))
	}
	recs := RecordsInRange(window, fetchStart, split.Offset, split.End())
	n := int64(len(window))
	return recs, ReadStats{BytesRead: n, BytesDecoded: n}, nil
}

func readCompressedText(read iofmt.RangeReaderFunc, split FileSplit, codec iofmt.Codec) ([]Record, ReadStats, error) {
	if split.Offset != 0 || split.Length != split.FileSize {
		return nil, ReadStats{}, fmt.Errorf(
			"mapreduce: %s is %s-compressed and not splittable, but got partial split %v",
			split.Path, codec.Name(), split)
	}
	data, err := read(0, split.FileSize)
	if err != nil {
		return nil, ReadStats{}, err
	}
	raw, err := codec.Decompress(data)
	if err != nil {
		return nil, ReadStats{}, fmt.Errorf("inflating %s: %w", split.Path, err)
	}
	recs := RecordsInRange(raw, 0, 0, int64(len(raw)))
	return recs, ReadStats{
		BytesRead:    int64(len(data)),
		BytesDecoded: int64(len(raw)),
		Compressed:   true,
	}, nil
}

func readSeqSplit(read iofmt.RangeReaderFunc, split FileSplit) ([]Record, ReadStats, error) {
	seqRecs, st, err := iofmt.ReadSeqSplit(read, split.FileSize, split.Offset, split.End())
	if err != nil {
		return nil, ReadStats{}, fmt.Errorf("reading %s: %w", split.Path, err)
	}
	recs := make([]Record, len(seqRecs))
	for i, r := range seqRecs {
		recs[i] = Record{Offset: r.Offset, Line: r.TextLine()}
	}
	return recs, ReadStats{
		BytesRead:    st.BytesFetched,
		BytesDecoded: st.RawBytes,
		Compressed:   st.CodecName != "none",
	}, nil
}

// FSRangeReader adapts a file on a plain filesystem to a ranged reader,
// loading the file once, lazily, on first use. The reader is safe for
// concurrent use, so every split of a file can share one.
func FSRangeReader(fs vfs.FileSystem, path string) iofmt.RangeReaderFunc {
	var (
		once sync.Once
		file iofmt.RangeReaderFunc
		err  error
	)
	return func(off, length int64) ([]byte, error) {
		once.Do(func() {
			var data []byte
			if data, err = vfs.ReadFile(fs, path); err == nil {
				file = iofmt.BytesRangeReader(data)
			}
		})
		if err != nil {
			return nil, err
		}
		return file(off, length)
	}
}
