package iofmt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// corpus builds deterministic pseudo-text: Zipf-ish repeated words so
// codecs have something to find, plus runs and binary noise to exercise
// edge cases.
func corpus(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"the", "quick", "brown", "fox", "mapreduce", "hdfs", "block", "sync", "a", "of"}
	var buf bytes.Buffer
	for buf.Len() < n {
		switch rng.Intn(10) {
		case 0: // run of one byte
			b := byte(rng.Intn(256))
			k := rng.Intn(200)
			for i := 0; i < k; i++ {
				buf.WriteByte(b)
			}
		case 1: // binary noise
			k := rng.Intn(64)
			for i := 0; i < k; i++ {
				buf.WriteByte(byte(rng.Intn(256)))
			}
		default:
			buf.WriteString(words[rng.Intn(len(words))])
			buf.WriteByte(' ')
		}
	}
	return buf.Bytes()[:n]
}

func TestCodecRoundTripProperty(t *testing.T) {
	for _, name := range CodecNames() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 20; seed++ {
			for _, n := range []int{0, 1, 3, 100, 4096, 70000} {
				data := corpus(seed*31+int64(n), n)
				enc, err := c.Compress(data)
				if err != nil {
					t.Fatalf("%s seed=%d n=%d: compress: %v", name, seed, n, err)
				}
				dec, err := c.Decompress(enc)
				if err != nil {
					t.Fatalf("%s seed=%d n=%d: decompress: %v", name, seed, n, err)
				}
				if !bytes.Equal(dec, data) {
					t.Fatalf("%s seed=%d n=%d: round trip mismatch", name, seed, n)
				}
				// Determinism: same input, same bytes.
				enc2, _ := c.Compress(data)
				if !bytes.Equal(enc, enc2) {
					t.Fatalf("%s seed=%d n=%d: non-deterministic compress", name, seed, n)
				}
			}
		}
	}
}

func TestLzsCompresses(t *testing.T) {
	data := bytes.Repeat([]byte("hello world "), 1000)
	enc, err := lzsCodec{}.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(data)/4 {
		t.Fatalf("lzs barely compressed repetitive text: %d -> %d", len(data), len(enc))
	}
}

func TestLzsErrorPaths(t *testing.T) {
	c := lzsCodec{}
	if _, err := c.Decompress([]byte("nope")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	good, _ := c.Compress([]byte("some data to compress, some data to compress"))
	if _, err := c.Decompress(good[:len(good)-3]); err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	// A match token pointing before the start of output.
	bad := []byte(lzsMagic)
	bad = append(bad, 10)         // raw length
	bad = append(bad, 0x80, 0, 5) // match len 4, dist 5 at output size 0
	if _, err := c.Decompress(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad distance: got %v", err)
	}
}

func TestByNameAndExtension(t *testing.T) {
	for _, empty := range []string{"", "none"} {
		c, err := ByName(empty)
		if err != nil || c != nil {
			t.Fatalf("ByName(%q) = %v, %v", empty, c, err)
		}
	}
	if _, err := ByName("zstd-not-here"); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("unknown codec: got %v", err)
	}
	if c := ByExtension("/data/corpus.txt.gz"); c == nil || c.Name() != "gzip" {
		t.Fatalf("ByExtension .gz = %v", c)
	}
	if c := ByExtension("/data/corpus.txt"); c != nil {
		t.Fatalf("ByExtension .txt = %v", c)
	}
}

func TestDetectPath(t *testing.T) {
	cases := []struct {
		path       string
		kind       Kind
		codec      string
		splittable bool
	}{
		{"/data/a.txt", KindText, "", true},
		{"/data/a.txt.gz", KindText, "gzip", false},
		{"/data/a.lzs", KindText, "lzs", false},
		{"/data/a.seq", KindSeq, "", true},
	}
	for _, tc := range cases {
		kind, codec := DetectPath(tc.path)
		if kind != tc.kind {
			t.Errorf("%s: kind = %v, want %v", tc.path, kind, tc.kind)
		}
		name := ""
		if codec != nil {
			name = codec.Name()
		}
		if name != tc.codec {
			t.Errorf("%s: codec = %q, want %q", tc.path, name, tc.codec)
		}
		if got := SplittablePath(tc.path); got != tc.splittable {
			t.Errorf("%s: splittable = %v, want %v", tc.path, got, tc.splittable)
		}
	}
}

// writeSeq builds a SequenceFile in memory with deterministic records.
func writeSeq(t *testing.T, codecName string, nrecs int, opts SeqWriterOptions) ([]byte, []SeqRecord) {
	t.Helper()
	c, err := ByName(codecName)
	if err != nil {
		t.Fatal(err)
	}
	opts.Codec = c
	var buf bytes.Buffer
	sw, err := NewSeqWriter(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []SeqRecord
	for i := 0; i < nrecs; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		val := []byte(fmt.Sprintf("value number %d with some padding padding padding", i))
		if i%7 == 0 {
			key = nil // empty keys are legal (datagen corpora use them)
		}
		if err := sw.Append(key, val); err != nil {
			t.Fatal(err)
		}
		want = append(want, SeqRecord{Key: append([]byte(nil), key...), Val: append([]byte(nil), val...)})
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Records != int64(nrecs) {
		t.Fatalf("writer counted %d records, wrote %d", sw.Records, nrecs)
	}
	return buf.Bytes(), want
}

func sameRecords(t *testing.T, got []SeqRecord, want []SeqRecord, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Val, want[i].Val) {
			t.Fatalf("%s: record %d mismatch: %q=%q want %q=%q",
				label, i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
		}
	}
}

func TestSeqRoundTrip(t *testing.T) {
	for _, codec := range []string{"none", "gzip", "lzs"} {
		data, want := writeSeq(t, codec, 200, SeqWriterOptions{BlockRecords: 16})
		got, stats, err := ReadSeqBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		sameRecords(t, got, want, codec)
		if stats.CodecName != codec {
			t.Errorf("%s: stats codec = %q", codec, stats.CodecName)
		}
		if stats.Blocks < 10 {
			t.Errorf("%s: only %d blocks for 200 records at 16/block", codec, stats.Blocks)
		}
	}
}

// TestSeqSplitAtEveryOffset is the load-bearing property: carving the
// file into two splits at ANY boundary yields exactly the whole file's
// record sequence — no block read twice, none lost. This is what makes
// ComputeSplits free to cut SequenceFiles at arbitrary byte offsets.
func TestSeqSplitAtEveryOffset(t *testing.T) {
	for _, codec := range []string{"none", "lzs"} {
		data, want := writeSeq(t, codec, 64, SeqWriterOptions{BlockRecords: 4})
		size := int64(len(data))
		read := BytesRangeReader(data)
		for cut := int64(0); cut <= size; cut++ {
			a, _, err := ReadSeqSplit(read, size, 0, cut)
			if err != nil {
				t.Fatalf("%s cut=%d first half: %v", codec, cut, err)
			}
			b, _, err := ReadSeqSplit(read, size, cut, size)
			if err != nil {
				t.Fatalf("%s cut=%d second half: %v", codec, cut, err)
			}
			sameRecords(t, append(a, b...), want, fmt.Sprintf("%s cut=%d", codec, cut))
		}
	}
}

// TestSeqSplitManyWays carves a file into n equal splits and checks the
// union, mimicking what the planner actually does.
func TestSeqSplitManyWays(t *testing.T) {
	data, want := writeSeq(t, "lzs", 500, SeqWriterOptions{BlockRecords: 8})
	size := int64(len(data))
	read := BytesRangeReader(data)
	for _, n := range []int64{1, 2, 3, 5, 7, 16} {
		var got []SeqRecord
		for i := int64(0); i < n; i++ {
			off := size * i / n
			end := size * (i + 1) / n
			recs, _, err := ReadSeqSplit(read, size, off, end)
			if err != nil {
				t.Fatalf("n=%d split %d: %v", n, i, err)
			}
			got = append(got, recs...)
		}
		sameRecords(t, got, want, fmt.Sprintf("n=%d", n))
	}
}

func TestSeqDeterministicBytes(t *testing.T) {
	a, _ := writeSeq(t, "lzs", 100, SeqWriterOptions{BlockRecords: 10})
	b, _ := writeSeq(t, "lzs", 100, SeqWriterOptions{BlockRecords: 10})
	if !bytes.Equal(a, b) {
		t.Fatal("same records produced different SequenceFile bytes")
	}
}

func TestSeqErrorPaths(t *testing.T) {
	data, _ := writeSeq(t, "gzip", 50, SeqWriterOptions{BlockRecords: 10})

	if _, _, err := ReadSeqBytes([]byte("not a seq file at all")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}

	// Truncate mid-block.
	if _, _, err := ReadSeqBytes(data[:len(data)-5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated block: got %v", err)
	}

	// Unknown codec name in the header.
	bad := append([]byte(nil), data...)
	// Header: magic(4) version(1) nameLen(1) name... — patch "gzip" to "gzqq".
	copy(bad[6:], "gzqq")
	if _, _, err := ReadSeqBytes(bad); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("unknown codec: got %v", err)
	}

	// Corrupt a payload byte near the end of the file — inside the last
	// block's deflate data or CRC trailer, either of which gzip rejects.
	bad = append([]byte(nil), data...)
	bad[len(bad)-10] ^= 0xFF
	if _, _, err := ReadSeqBytes(bad); err == nil {
		t.Fatal("corrupt payload decoded without error")
	}
}

func TestSeqEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewSeqWriter(&buf, SeqWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := ReadSeqBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.Blocks != 0 {
		t.Fatalf("empty file: %d records, %d blocks", len(recs), stats.Blocks)
	}
}

func TestCompressedSize(t *testing.T) {
	data := bytes.Repeat([]byte("abc "), 500)
	n, err := CompressedSize(nil, data)
	if err != nil || n != int64(len(data)) {
		t.Fatalf("nil codec: %d, %v", n, err)
	}
	g, _ := ByName("gzip")
	n, err = CompressedSize(g, data)
	if err != nil || n <= 0 || n >= int64(len(data)) {
		t.Fatalf("gzip size: %d, %v", n, err)
	}
}

// A negative offset or length is an error, as from the HDFS client's
// ranged read; everything else is a window of the file, short at its end.
func TestBytesRangeReaderRanges(t *testing.T) {
	read := BytesRangeReader([]byte("0123456789"))
	for _, r := range []struct{ off, length int64 }{{-1, 3}, {2, -1}, {-5, -5}} {
		if got, err := read(r.off, r.length); err == nil {
			t.Errorf("read(%d, %d) = %q, nil; want an error", r.off, r.length, got)
		}
	}
	for _, r := range []struct {
		off, length int64
		want        string
	}{{0, 3, "012"}, {8, 5, "89"}, {10, 1, ""}, {12, 1, ""}, {4, 0, ""}, {3, math.MaxInt64, "3456789"}} {
		got, err := read(r.off, r.length)
		if err != nil || string(got) != r.want {
			t.Errorf("read(%d, %d) = %q, %v; want %q", r.off, r.length, got, err, r.want)
		}
	}
}

// sortRecords is kept for multiset comparisons if split order ever
// stops being deterministic; currently order is deterministic so the
// strict compare above is stronger.
func sortRecords(recs []SeqRecord) {
	sort.Slice(recs, func(i, j int) bool {
		if c := bytes.Compare(recs[i].Key, recs[j].Key); c != 0 {
			return c < 0
		}
		return bytes.Compare(recs[i].Val, recs[j].Val) < 0
	})
}
