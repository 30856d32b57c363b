package mapreduce

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/iofmt"
	"repro/internal/vfs"
)

// Record is one text input record: the line and its byte offset in the
// file, exactly the (key, value) pair Hadoop's TextInputFormat delivers.
type Record struct {
	Offset int64
	Line   string
}

// FileSplit is a contiguous byte range of one input file assigned to one
// map task. Hosts lists hostnames holding the data locally (empty for
// non-replicated filesystems); the distributed scheduler uses it for
// locality.
type FileSplit struct {
	Path     string
	Offset   int64
	Length   int64
	FileSize int64
	Hosts    []string
}

// End returns the exclusive end offset of the split.
func (s FileSplit) End() int64 { return s.Offset + s.Length }

func (s FileSplit) String() string {
	return fmt.Sprintf("%s:%d+%d", s.Path, s.Offset, s.Length)
}

// ComputeSplits expands the input paths (files or directories) on fs and
// carves each file into splits: one per extent where fs stores the file
// in extents (one per HDFS block, carrying the block's hosts for locality
// scheduling), else of at most splitSize bytes. Empty files yield no
// splits. Files whose format cannot be split — whole-stream compressed
// text like .gz — become exactly one split covering the whole file, which
// is how gzipping an input silently caps a job at one map task however
// many blocks HDFS stores.
func ComputeSplits(fs vfs.FileSystem, inputs []string, splitSize int64) ([]FileSplit, error) {
	if splitSize <= 0 {
		splitSize = DefaultSplitSize
	}
	var files []vfs.FileInfo
	for _, in := range inputs {
		err := vfs.Walk(fs, in, func(fi vfs.FileInfo) error {
			files = append(files, fi)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	var splits []FileSplit
	for _, f := range files {
		if f.Size == 0 {
			continue
		}
		extents, err := vfs.Extents(fs, f.Path)
		if err != nil {
			return nil, err
		}
		switch {
		case !iofmt.SplittablePath(f.Path):
			// Locality can only target the first extent; the task streams
			// the rest across the network regardless.
			var hosts []string
			if len(extents) > 0 {
				hosts = extents[0].Hosts
			}
			extents = []vfs.Extent{{Length: f.Size, Hosts: hosts}}
		case len(extents) == 0:
			for off := int64(0); off < f.Size; off += splitSize {
				extents = append(extents, vfs.Extent{Offset: off, Length: min(splitSize, f.Size-off)})
			}
		}
		for _, e := range extents {
			splits = append(splits, FileSplit{
				Path: f.Path, Offset: e.Offset, Length: e.Length, FileSize: f.Size, Hosts: e.Hosts,
			})
		}
	}
	return splits, nil
}

// RecordsInRange extracts the records belonging to the split [off, end) of
// a file from data, where data holds the file bytes starting at absolute
// offset dataStart. The caller must supply data reaching at least one byte
// before off (when off > 0, to detect whether a record starts exactly at
// off) and far enough past end to complete the final record or reach EOF.
//
// Record-boundary rule (Hadoop TextInputFormat): a record belongs to the
// split containing its first byte; a split whose start lands mid-record
// skips forward to the next record; the split containing a record's start
// reads past its own end to finish that record.
func RecordsInRange(data []byte, dataStart, off, end int64) []Record {
	pos := off
	if off > 0 {
		// Start one byte early: the first newline found tells us where the
		// first record owned by this split begins.
		scanFrom := off - 1 - dataStart
		if scanFrom < 0 {
			scanFrom = 0
		}
		nl := bytes.IndexByte(data[scanFrom:], '\n')
		if nl < 0 {
			return nil // split is entirely inside one record owned by a predecessor
		}
		pos = dataStart + scanFrom + int64(nl) + 1
	}
	// One record per newline that starts inside the split, plus the one
	// that runs past its end (or to EOF without a newline).
	lo, hi := min(pos-dataStart, int64(len(data))), min(end-dataStart, int64(len(data)))
	if lo >= hi {
		return nil
	}
	// The split's records end at the first newline from its last byte on.
	// They become one string, and each Line is a substring of it: two
	// allocations per split, not one per record, and none for the
	// look-ahead past the last record.
	stop := int64(len(data))
	if nl := bytes.IndexByte(data[hi-1:], '\n'); nl >= 0 {
		stop = hi + int64(nl)
	}
	text := string(data[lo:stop])
	out := make([]Record, 0, bytes.Count(data[lo:hi], []byte{'\n'})+1)
	for i := 0; i < len(text); {
		line, next := text[i:], len(text)
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line, next = line[:nl], i+nl+1
		}
		out = append(out, Record{Offset: pos + int64(i), Line: strings.TrimSuffix(line, "\r")})
		i = next
	}
	return out
}
