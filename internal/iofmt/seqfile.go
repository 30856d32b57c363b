package iofmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The SequenceFile container, modelled on Hadoop's block-compressed
// SequenceFile: a small header, then blocks of records, each block
// preceded by a 16-byte sync marker and compressed independently. The
// sync markers are what make the format splittable regardless of codec:
// a reader dropped at any byte offset scans forward to the next marker
// and is guaranteed to be at a block boundary — so a map task can own
// exactly the blocks whose markers start inside its byte range, and a
// whole file can be processed in parallel even though every block is
// compressed.
//
// Layout (all integers are uvarints unless noted):
//
//	header: magic "SEQ1" | version byte | codecNameLen | codecName | sync[16]
//	block:  sync[16] | recordCount | rawLen | payloadLen | payload
//	payload (after decompression): recordCount × (keyLen key valLen val)
//
// The sync marker is derived deterministically from the codec name, so
// same-seed runs write byte-identical files.

// SeqMagic is the container's leading magic number.
const SeqMagic = "SEQ1"

const (
	seqVersion  = 1
	SyncSize    = 16
	maxSaneUint = 1 << 31 // structural sanity bound for uvarint fields
)

// SyncMarker returns the deterministic 16-byte sync marker used by files
// whose blocks are compressed with the named codec ("" or "none" for
// uncompressed blocks).
func SyncMarker(codecName string) [SyncSize]byte {
	sum := sha256.Sum256([]byte("repro.iofmt.seq\x00" + codecName))
	var sync [SyncSize]byte
	copy(sync[:], sum[:SyncSize])
	return sync
}

// canonicalCodecName normalises the stored codec name.
func canonicalCodecName(c Codec) string {
	if c == nil {
		return "none"
	}
	return c.Name()
}

// --- writer ---

// SeqWriterOptions tunes a SeqWriter.
type SeqWriterOptions struct {
	// Codec compresses each block's payload (nil = store raw).
	Codec Codec
	// BlockRecords caps records per block (default 1000).
	BlockRecords int
	// BlockBytes caps the raw payload bytes per block (default 64 KiB).
	// Smaller blocks mean more sync points and finer split granularity,
	// at the price of compression ratio — the knob the IO lab turns.
	BlockBytes int
}

func (o SeqWriterOptions) withDefaults() SeqWriterOptions {
	if o.BlockRecords <= 0 {
		o.BlockRecords = 1000
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = 64 << 10
	}
	return o
}

// SeqWriter appends typed key/value records to a SequenceFile.
type SeqWriter struct {
	w    io.Writer
	opts SeqWriterOptions
	sync [SyncSize]byte

	buf     []byte // raw payload of the open block
	blk     []byte // reused container-block scratch (sync + header + payload)
	bufRecs int

	// Records, RawBytes and WrittenBytes meter the file: logical record
	// count, uncompressed payload bytes, and actual container bytes
	// (header, syncs, block headers, compressed payloads).
	Records      int64
	RawBytes     int64
	WrittenBytes int64

	closed bool
}

// NewSeqWriter writes the header and returns a writer. The error is the
// underlying io.Writer's.
func NewSeqWriter(w io.Writer, opts SeqWriterOptions) (*SeqWriter, error) {
	opts = opts.withDefaults()
	sw := &SeqWriter{w: w, opts: opts, sync: SyncMarker(canonicalCodecName(opts.Codec))}
	name := canonicalCodecName(opts.Codec)
	hdr := append([]byte(SeqMagic), seqVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = append(hdr, sw.sync[:]...)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	sw.WrittenBytes += int64(len(hdr))
	return sw, nil
}

// Append adds one record, flushing a block when the open block is full.
func (sw *SeqWriter) Append(key, val []byte) error {
	if sw.closed {
		return io.ErrClosedPipe
	}
	sw.buf = AppendRecord(sw.buf, key, val)
	return sw.noteAppend()
}

// AppendString adds one record from a string key and value, framed
// straight into the open block's buffer with no []byte copies.
func (sw *SeqWriter) AppendString(key, val string) error {
	if sw.closed {
		return io.ErrClosedPipe
	}
	sw.buf = AppendRecord(sw.buf, key, val)
	return sw.noteAppend()
}

func (sw *SeqWriter) noteAppend() error {
	sw.bufRecs++
	sw.Records++
	if sw.bufRecs >= sw.opts.BlockRecords || len(sw.buf) >= sw.opts.BlockBytes {
		return sw.flushBlock()
	}
	return nil
}

func (sw *SeqWriter) flushBlock() error {
	if sw.bufRecs == 0 {
		return nil
	}
	payload := sw.buf
	if sw.opts.Codec != nil {
		var err error
		payload, err = sw.opts.Codec.Compress(sw.buf)
		if err != nil {
			return err
		}
	}
	// blk is scratch reused across blocks: after the first flush the only
	// per-block allocation left is whatever the codec itself makes.
	blk := append(sw.blk[:0], sw.sync[:]...)
	blk = binary.AppendUvarint(blk, uint64(sw.bufRecs))
	blk = binary.AppendUvarint(blk, uint64(len(sw.buf)))
	blk = binary.AppendUvarint(blk, uint64(len(payload)))
	blk = append(blk, payload...)
	sw.blk = blk
	if _, err := sw.w.Write(blk); err != nil {
		return err
	}
	sw.WrittenBytes += int64(len(blk))
	sw.RawBytes += int64(len(sw.buf))
	sw.buf = sw.buf[:0]
	sw.bufRecs = 0
	return nil
}

// Close flushes the final block. It does not close the underlying writer.
func (sw *SeqWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	return sw.flushBlock()
}

// --- reader ---

// SeqRecord is one decoded record with the file offset of the sync
// marker of the block it came from.
type SeqRecord struct {
	Offset   int64
	Key, Val []byte
}

// TextLine renders the record the way line-oriented consumers (the
// mapper input layer, `hadoop fs -text`) see it: "key<TAB>value", or
// the value alone when the key is empty — so a SequenceFile written
// from text lines round-trips to the same lines.
func (r SeqRecord) TextLine() string {
	if len(r.Key) == 0 {
		return string(r.Val)
	}
	return string(r.Key) + "\t" + string(r.Val)
}

// SeqStats meters one split read.
type SeqStats struct {
	// BytesFetched is how much of the container was pulled from storage
	// (compressed form, including markers and block headers).
	BytesFetched int64
	// RawBytes is the decompressed payload volume delivered.
	RawBytes int64
	// Blocks is how many blocks this split owned.
	Blocks int
	// CodecName is the codec recorded in the header.
	CodecName string
}

// RangeReaderFunc fetches [off, off+length) of a file; short results at
// end-of-file are allowed, and a negative off or length is an error. It
// is the seam through which both the plain filesystems and the HDFS
// client (with its metered ranged block reads) back the split reader.
// The returned bytes may alias the file's storage — the in-memory file,
// the HDFS blocks — and must not be modified; append to them only after
// a full slice expression or a copy.
type RangeReaderFunc func(off, length int64) ([]byte, error)

// seqFetcher grows a forward-only window over the file via chunked
// ranged reads, so a reader never fetches more of a container than its
// split plus the tail of its final block.
type seqFetcher struct {
	read    RangeReaderFunc
	size    int64
	base    int64 // file offset of window[0]
	window  []byte
	fetched int64
	chunk   int64
}

func newSeqFetcher(read RangeReaderFunc, size, start int64) *seqFetcher {
	return &seqFetcher{read: read, size: size, base: start, chunk: 128 << 10}
}

// ensure makes [off, off+n) available, returning false at end-of-file.
func (f *seqFetcher) ensure(off, n int64) (bool, error) {
	if off+n > f.size {
		return false, nil
	}
	for f.base+int64(len(f.window)) < off+n {
		at := f.base + int64(len(f.window))
		want := f.chunk
		if at+want > f.size {
			want = f.size - at
		}
		if want <= 0 {
			return false, nil
		}
		data, err := f.read(at, want)
		if err != nil {
			return false, err
		}
		f.fetched += int64(len(data))
		f.window = append(f.window, data...)
		if int64(len(data)) < want {
			break // storage returned short: treat as EOF
		}
	}
	return f.base+int64(len(f.window)) >= off+n, nil
}

func (f *seqFetcher) bytes(off, n int64) []byte {
	i := off - f.base
	return f.window[i : i+n]
}

// seqHeader is the parsed file header.
type seqHeader struct {
	codec Codec
	name  string
	sync  [SyncSize]byte
	len   int64
}

func readSeqHeader(read RangeReaderFunc, size int64) (*seqHeader, error) {
	// The header is tiny; 64 bytes covers any registered codec name.
	want := int64(64)
	if want > size {
		want = size
	}
	data, err := read(0, want)
	if err != nil {
		return nil, err
	}
	if len(data) < len(SeqMagic)+1 || string(data[:len(SeqMagic)]) != SeqMagic {
		return nil, fmt.Errorf("%w: not a SequenceFile", ErrBadMagic)
	}
	if data[len(SeqMagic)] != seqVersion {
		return nil, fmt.Errorf("%w: unsupported SequenceFile version %d", ErrCorrupt, data[len(SeqMagic)])
	}
	rest := data[len(SeqMagic)+1:]
	nameLen, n := binary.Uvarint(rest)
	if n <= 0 || nameLen > 40 || int(nameLen)+n+SyncSize > len(rest) {
		return nil, fmt.Errorf("%w: SequenceFile header cut short", ErrTruncated)
	}
	rest = rest[n:]
	name := string(rest[:nameLen])
	rest = rest[nameLen:]
	h := &seqHeader{name: name, len: int64(len(SeqMagic)) + 1 + int64(n) + int64(nameLen) + SyncSize}
	copy(h.sync[:], rest[:SyncSize])
	if name != "none" {
		c, err := ByName(name)
		if err != nil {
			return nil, err
		}
		h.codec = c
	}
	return h, nil
}

// ReadSeqSplit decodes the records of the split [off, end) of a
// SequenceFile: exactly the blocks whose sync marker starts inside the
// range (treating offsets inside the header as the first block's start).
// Splitting a file at every possible offset therefore yields the same
// record multiset as reading it whole — the invariant the property tests
// pin.
func ReadSeqSplit(read RangeReaderFunc, fileSize, off, end int64) ([]SeqRecord, SeqStats, error) {
	var stats SeqStats
	hdr, err := readSeqHeader(read, fileSize)
	if err != nil {
		return nil, stats, err
	}
	stats.BytesFetched += hdr.len
	stats.CodecName = hdr.name
	if end > fileSize {
		end = fileSize
	}
	start := off
	if start < hdr.len {
		start = hdr.len
	}
	if start >= end {
		return nil, stats, nil
	}

	f := newSeqFetcher(read, fileSize, start)
	pos, ok, err := scanSync(f, start, hdr.sync)
	if err != nil {
		return nil, stats, err
	}
	var recs []SeqRecord
	for ok && pos < end {
		blockStart := pos
		recCount, rawLen, payloadLen, bodyOff, err := readBlockHeader(f, pos+SyncSize)
		if err != nil {
			return nil, stats, err
		}
		have, err := f.ensure(bodyOff, payloadLen)
		if err != nil {
			return nil, stats, err
		}
		if !have {
			return nil, stats, fmt.Errorf("%w: SequenceFile block at offset %d cut short", ErrTruncated, blockStart)
		}
		payload := f.bytes(bodyOff, payloadLen)
		raw := payload
		if hdr.codec != nil {
			raw, err = hdr.codec.Decompress(payload)
			if err != nil {
				return nil, stats, err
			}
		}
		if int64(len(raw)) != rawLen {
			return nil, stats, fmt.Errorf("%w: block at %d decoded %d bytes, header says %d", ErrCorrupt, blockStart, len(raw), rawLen)
		}
		// A record takes at least two bytes, so a corrupt count the block
		// cannot hold does not size the slice; the loop below reports it.
		if n := int(min(recCount, int64(len(raw)/2))); cap(recs) < len(recs)+n {
			recs = slices.Grow(recs, n)
		}
		for i := int64(0); i < recCount; i++ {
			key, val, rest, err := ConsumeRecord(raw)
			if err != nil {
				return nil, stats, fmt.Errorf("%w: record %d of block at %d", err, i, blockStart)
			}
			raw = rest
			recs = append(recs, SeqRecord{Offset: blockStart, Key: key, Val: val})
		}
		stats.Blocks++
		stats.RawBytes += rawLen
		pos = bodyOff + payloadLen
		if pos >= fileSize {
			break
		}
		// The next block must begin with a sync marker exactly here.
		have, err = f.ensure(pos, SyncSize)
		if err != nil {
			return nil, stats, err
		}
		if !have {
			return nil, stats, fmt.Errorf("%w: trailing bytes after block at %d", ErrTruncated, blockStart)
		}
		if !bytes.Equal(f.bytes(pos, SyncSize), hdr.sync[:]) {
			return nil, stats, fmt.Errorf("%w: missing sync marker at offset %d", ErrCorrupt, pos)
		}
	}
	stats.BytesFetched += f.fetched
	return recs, stats, nil
}

// ReadSeqFile decodes every record of a SequenceFile.
func ReadSeqFile(read RangeReaderFunc, fileSize int64) ([]SeqRecord, SeqStats, error) {
	return ReadSeqSplit(read, fileSize, 0, fileSize)
}

// ReadSeqBytes decodes an in-memory SequenceFile (shell -text, tests).
func ReadSeqBytes(data []byte) ([]SeqRecord, SeqStats, error) {
	return ReadSeqFile(BytesRangeReader(data), int64(len(data)))
}

// BytesRangeReader adapts an in-memory file to a RangeReaderFunc whose
// results are windows of data, clipped to their length so that an append
// to one copies.
func BytesRangeReader(data []byte) RangeReaderFunc {
	return func(off, length int64) ([]byte, error) {
		if off < 0 || length < 0 {
			return nil, fmt.Errorf("iofmt: negative range: offset %d, length %d", off, length)
		}
		end := int64(len(data))
		if length < end-off {
			end = off + length
		}
		if off >= end {
			return nil, nil
		}
		return data[off:end:end], nil
	}
}

// scanSync finds the first sync marker whose first byte is at or after
// from, returning its offset (ok=false when the rest of the file has no
// marker).
func scanSync(f *seqFetcher, from int64, sync [SyncSize]byte) (int64, bool, error) {
	pos := from
	for {
		// Fetch a window and search it; keep SyncSize-1 bytes of overlap
		// so markers straddling chunk boundaries are found.
		have, err := f.ensure(pos, SyncSize)
		if err != nil {
			return 0, false, err
		}
		if !have {
			return 0, false, nil
		}
		limit := f.base + int64(len(f.window))
		i := bytes.Index(f.bytes(pos, limit-pos), sync[:])
		if i >= 0 {
			return pos + int64(i), true, nil
		}
		pos = limit - (SyncSize - 1)
		if limit >= f.size {
			return 0, false, nil
		}
	}
}

// readBlockHeader parses the three uvarints after a sync marker,
// returning the offset where the payload begins.
func readBlockHeader(f *seqFetcher, at int64) (recCount, rawLen, payloadLen, bodyOff int64, err error) {
	// Three maximal uvarints fit in 30 bytes.
	want := int64(30)
	if at+want > f.size {
		want = f.size - at
	}
	if want <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("%w: block header past end of file", ErrTruncated)
	}
	if _, err := f.ensure(at, want); err != nil {
		return 0, 0, 0, 0, err
	}
	hdr := f.bytes(at, want)
	var vals [3]int64
	off := 0
	for i := range vals {
		v, n := binary.Uvarint(hdr[off:])
		if n <= 0 || v > maxSaneUint {
			return 0, 0, 0, 0, fmt.Errorf("%w: bad block header", ErrTruncated)
		}
		vals[i] = int64(v)
		off += n
	}
	return vals[0], vals[1], vals[2], at + int64(off), nil
}

// takeBytes pops one uvarint-length-prefixed byte string.
func takeBytes(b []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > maxSaneUint {
		return nil, nil, ErrCorrupt
	}
	b = b[sz:]
	if int64(n) > int64(len(b)) {
		return nil, nil, ErrTruncated
	}
	return b[:n], b[n:], nil
}
