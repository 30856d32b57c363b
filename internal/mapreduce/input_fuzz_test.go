package mapreduce

import (
	"bytes"
	"reflect"
	"testing"
)

// referenceRecords cuts a whole file into its line records the plain way:
// one string per line, offsets counted as it goes.
func referenceRecords(data []byte) []Record {
	var out []Record
	off := int64(0)
	for _, line := range bytes.SplitAfter(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue // after a final newline, or an empty file
		}
		trimmed := bytes.TrimSuffix(bytes.TrimSuffix(line, []byte{'\n'}), []byte{'\r'})
		out = append(out, Record{Offset: off, Line: string(trimmed)})
		off += int64(len(line))
	}
	return out
}

// FuzzRecordsInRange is a differential target: for any bytes and any cut
// of them into consecutive splits, the records of all splits together
// are the file's lines in order, each exactly once, with the reference's
// Offset and Line. cuts gives the split sizes (each byte + 1, cycled);
// odd splits get a window that starts at the look-back byte, as a split
// reader's does, even ones the whole file.
func FuzzRecordsInRange(f *testing.F) {
	f.Add([]byte("one\ntwo\nthree"), []byte{3})
	f.Add([]byte("a\r\nb\r\n\r\n\n"), []byte{0, 2})
	f.Add([]byte("\n\nx\r"), []byte{1, 0, 7})
	f.Add([]byte("long line with no newline at all"), []byte{4, 9})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var got []Record
		for i, off := 0, int64(0); off < int64(len(data)); i++ {
			size := int64(len(data))
			if len(cuts) > 0 {
				size = int64(cuts[i%len(cuts)]) + 1
			}
			end := min(off+size, int64(len(data)))
			start := int64(0)
			if i%2 == 1 {
				start = max(off-1, 0)
			}
			got = append(got, RecordsInRange(data[start:], start, off, end)...)
			off = end
		}
		if want := referenceRecords(data); !reflect.DeepEqual(got, want) {
			t.Fatalf("data %q cuts %v:\n got %q\nwant %q", data, cuts, got, want)
		}
	})
}
