// Package kvstore is a teaching-scale HBase: a sorted, versioned
// key-value store layered on HDFS, matching the architecture covered by
// the course's HBase/Hive lecture (Fall 2013 added "one lecture
// introducing HBase/Hive ... to provide a more comprehensive view of the
// Hadoop ecosystem"). It implements the essential mechanics — a
// write-ahead log on HDFS, an in-memory MemStore, sorted immutable
// store files (HFiles) flushed to HDFS, read-path merging across
// MemStore and store files, tombstone deletes, minor compaction, and
// range scans — over any vfs.FileSystem, so a table survives whatever
// the underlying DFS survives. The MemStore is a key-sorted run like a
// store file, and one merger over the runs, which Compact, ScanRange,
// Scan and MidKey all walk, is where newest-version-wins is written.
//
// The store is the storage engine of the online serving tier
// (internal/regionserver): a region is one Table hosting a contiguous
// row-key range. Serving-scale demands shape two mechanisms here:
//
//   - The WAL is a directory of capped segment files, each record one
//     vfs append. Recovery replays segments in order and tolerates a
//     torn final record, the crash-mid-append case; the cap bounds what
//     one replay reads and what one torn tail can touch.
//   - Store files are parsed once, when they are written or when Open
//     finds them, and their sorted entries stay in the table's file list
//     (the block cache at teaching scale): a point read is a binary search
//     per run, the MemStore's included, and never touches the filesystem.
//   - A region split or merge moves no rows: Reference opens a new table
//     over a key range of other tables' store files, each named by a
//     one-record marker, and the new table's first compaction writes
//     the rows into a file of its own (DESIGN.md §12).
package kvstore

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// ErrNotFound is returned by Get for absent (or deleted) keys.
var ErrNotFound = errors.New("kvstore: key not found")

// Names other packages and tests read; every other kv name is written
// once, where it is registered (docs/OBSERVABILITY.md).
const (
	MetricPuts         = "kv.puts"
	MetricDeletes      = "kv.deletes"
	MetricGets         = "kv.gets"
	MetricScans        = "kv.scans"
	MetricFlushes      = "kv.flushes"
	MetricFlushBytes   = "kv.flush_bytes"
	MetricCompactions  = "kv.compactions"
	MetricCompactBytes = "kv.compact_bytes"
	MetricWALAppends   = "kv.wal_appends"
	MetricWALBytes     = "kv.wal_bytes"
	MetricWALReplayed  = "kv.wal_replayed_records"
)

// kvMetrics holds a table's interned metric handles (all nil-safe).
type kvMetrics struct {
	puts           *obs.Counter
	deletes        *obs.Counter
	gets           *obs.Counter
	scans          *obs.Counter
	flushes        *obs.Counter
	flushBytes     *obs.Counter
	compactions    *obs.Counter
	compactBytes   *obs.Counter
	walAppends     *obs.Counter
	walBytes       *obs.Counter
	walReplayed    *obs.Counter
	walTornDrops   *obs.Counter
	bulkLoads      *obs.Counter
	storeFileReads *obs.Counter
}

func newKVMetrics(r *obs.Registry) kvMetrics {
	return kvMetrics{
		puts:           r.Counter(MetricPuts),
		deletes:        r.Counter(MetricDeletes),
		gets:           r.Counter(MetricGets),
		scans:          r.Counter(MetricScans),
		flushes:        r.Counter(MetricFlushes),
		flushBytes:     r.Counter(MetricFlushBytes),
		compactions:    r.Counter(MetricCompactions),
		compactBytes:   r.Counter(MetricCompactBytes),
		walAppends:     r.Counter(MetricWALAppends),
		walBytes:       r.Counter(MetricWALBytes),
		walReplayed:    r.Counter(MetricWALReplayed),
		walTornDrops:   r.Counter("kv.wal_torn_drops"),
		bulkLoads:      r.Counter("kv.bulk_loads"),
		storeFileReads: r.Counter("kv.store_file_reads"),
	}
}

// Config tunes a table.
type Config struct {
	// FlushThresholdBytes triggers a MemStore flush (default 64 KiB —
	// teaching scale).
	FlushThresholdBytes int64
	// CompactTrigger is the store-file count that triggers a minor
	// compaction (default 4).
	CompactTrigger int
	// WALSegmentBytes caps one WAL segment file (default 8 KiB): the unit
	// replay reads and the most a torn tail can sit in.
	WALSegmentBytes int64
	// Obs, when set, receives the table's kv.* metric stream.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.FlushThresholdBytes <= 0 {
		c.FlushThresholdBytes = 64 << 10
	}
	if c.CompactTrigger <= 0 {
		c.CompactTrigger = 4
	}
	if c.WALSegmentBytes <= 0 {
		c.WALSegmentBytes = 8 << 10
	}
	return c
}

// cell is one versioned value; tombstone marks a delete.
type cell struct {
	seq       uint64
	value     []byte
	tombstone bool
}

// Table is one HBase-style table rooted at a directory of the backing
// filesystem:
//
//	<root>/wal.d/NNNNNN       capped write-ahead-log segments
//	<root>/hfiles/NNNNNN      sorted immutable store files
//	<root>/hfiles/NNNNNN.ref  reference markers onto other tables' files
type Table struct {
	fs   vfs.FileSystem
	root string
	cfg  Config
	m    kvMetrics

	mem      []entry // the MemStore: one cell per key, in key order
	memBytes int64
	seq      uint64
	nextFile int

	// files is the in-memory list of store files, oldest first, kept in
	// sync with the hfiles directory; their sizes sum to diskBytes.
	files     []storeFile
	diskBytes int64

	// walSeg is the current WAL segment number, walPath its path and
	// walLen the bytes appended to it so far.
	walSeg  int
	walPath string
	walLen  int64

	// enc encodes every record this table writes, WAL and store file
	// alike, into one buffer reused across calls.
	enc recordEncoder

	// Flushes and Compactions count maintenance operations for tests and
	// the lecture demo.
	Flushes     int
	Compactions int
}

// Open creates or reopens a table at root. Reopening replays the WAL into
// the MemStore and discovers existing store files — the recovery path.
func Open(fs vfs.FileSystem, root string, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		fs:   fs,
		root: vfs.Clean(root),
		cfg:  cfg,
		m:    newKVMetrics(cfg.Obs),
	}
	if err := fs.Mkdir(t.hfileDir()); err != nil {
		return nil, err
	}
	if err := fs.Mkdir(t.walDir()); err != nil {
		return nil, err
	}
	infos, err := fs.List(t.hfileDir())
	if err != nil {
		return nil, err
	}
	for _, fi := range infos { // sorted by path: oldest first
		if fi.IsDir {
			continue
		}
		n, err := fileNumber(fi.Path)
		if err != nil {
			return nil, err
		}
		if n >= t.nextFile {
			t.nextFile = n + 1
		}
		f := storeFile{path: fi.Path, size: fi.Size}
		if strings.HasSuffix(fi.Path, refSuffix) {
			if f, err = t.readMarker(fi.Path); err != nil {
				return nil, fmt.Errorf("kvstore: reference marker %s: %w", fi.Path, err)
			}
		} else if f.entries, err = t.readRecords(fi.Path); err != nil {
			return nil, fmt.Errorf("kvstore: store file %w", err)
		}
		t.addStoreFile(f)
		// Track the highest sequence number present in store files.
		for _, e := range f.entries {
			if e.cell.seq > t.seq {
				t.seq = e.cell.seq
			}
		}
	}
	torn, err := t.replayWAL()
	if err != nil {
		return nil, err
	}
	if torn {
		// Replay forgives a torn record only at the end of the last
		// segment, and the next append opens a new one. So before any
		// write is accepted the replayed records move into a store file
		// and every segment, the torn bytes with it, is deleted.
		if err := t.Flush(); err != nil {
			return nil, err
		}
		if err := t.truncateWAL(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *Table) walDir() string   { return vfs.Join(t.root, "wal.d") }
func (t *Table) hfileDir() string { return vfs.Join(t.root, "hfiles") }

func (t *Table) walSegPath(n int) string {
	return vfs.Join(t.walDir(), fmt.Sprintf("%06d", n))
}

// refSuffix marks a reference marker among the store files.
const refSuffix = ".ref"

func fileNumber(path string) (int, error) {
	_, name := vfs.Split(path)
	return strconv.Atoi(strings.TrimSuffix(name, refSuffix))
}

// nextFilePath numbers the next file of the hfiles directory.
func (t *Table) nextFilePath(suffix string) string {
	path := vfs.Join(t.hfileDir(), fmt.Sprintf("%06d", t.nextFile)+suffix)
	t.nextFile++
	return path
}

// --- WAL ---

// A record is one logged mutation, encoded as a single text line:
// seq <TAB> P|D <TAB> b64(key) <TAB> b64(value) <TAB> crc32
// The trailing checksum is what makes a torn record (a crash mid-append)
// reliably detectable: a truncated base64 field can still decode, but it
// cannot still match the CRC. Store files hold the same lines, sorted,
// and a reference marker is one such line (see storeFile).

// recordEncoder appends encoded records to buf. Both slices are scratch
// kept between calls, so a warmed encoder allocates nothing.
type recordEncoder struct {
	buf []byte // the encoded records
	sum []byte // the current record's checksummed prefix
}

func (e *recordEncoder) reset() { e.buf = e.buf[:0] }

func (e *recordEncoder) add(key string, c cell) {
	op := "P"
	if c.tombstone {
		op = "D"
	}
	e.sum = sumPrefix(e.sum[:0], c.seq, op, key)
	crc := crc32.Update(crc32.ChecksumIEEE(e.sum), crc32.IEEETable, c.value)
	// The prefix ends "key|": the key as the bytes base64 wants.
	keyBytes := e.sum[len(e.sum)-1-len(key) : len(e.sum)-1]
	b := strconv.AppendUint(e.buf, c.seq, 10)
	b = append(b, '\t')
	b = append(b, op...)
	b = append(b, '\t')
	b = base64.StdEncoding.AppendEncode(b, keyBytes)
	b = append(b, '\t')
	b = base64.StdEncoding.AppendEncode(b, c.value)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(crc), 10)
	e.buf = append(b, '\n')
}

// sumPrefix appends "seq|op|key|", the part of a record's checksum input
// that precedes the value.
func sumPrefix(dst []byte, seq uint64, op, key string) []byte {
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, '|')
	dst = append(dst, op...)
	dst = append(dst, '|')
	dst = append(dst, key...)
	return append(dst, '|')
}

func walCRC(seq uint64, op, key string, value []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(sumPrefix(nil, seq, op, key)), crc32.IEEETable, value)
}

func parseWALLine(line string) (key string, c cell, err error) {
	f := strings.Split(line, "\t")
	if len(f) != 5 {
		return "", cell{}, fmt.Errorf("kvstore: bad wal line %q", line)
	}
	seq, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return "", cell{}, err
	}
	if f[1] != "P" && f[1] != "D" {
		return "", cell{}, fmt.Errorf("kvstore: bad wal op %q", f[1])
	}
	kb, err := base64.StdEncoding.DecodeString(f[2])
	if err != nil {
		return "", cell{}, err
	}
	vb, err := base64.StdEncoding.DecodeString(f[3])
	if err != nil {
		return "", cell{}, err
	}
	crc, err := strconv.ParseUint(f[4], 10, 32)
	if err != nil {
		return "", cell{}, err
	}
	if uint32(crc) != walCRC(seq, f[1], string(kb), vb) {
		return "", cell{}, fmt.Errorf("kvstore: wal record checksum mismatch")
	}
	return string(kb), cell{seq: seq, value: vb, tombstone: f[1] == "D"}, nil
}

// appendWAL appends the record of one mutation to the current WAL
// segment and rolls to a fresh segment once the cap is reached.
func (t *Table) appendWAL(key string, c cell) error {
	t.enc.reset()
	t.enc.add(key, c)
	rec := t.enc.buf
	w, err := t.fs.Append(t.walPath)
	if err != nil {
		return err
	}
	if _, err := w.Write(rec); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	t.m.walAppends.Inc()
	t.m.walBytes.Add(int64(len(rec)))
	t.walLen += int64(len(rec))
	if t.walLen >= t.cfg.WALSegmentBytes {
		t.openSegment(t.walSeg + 1)
	}
	return nil
}

// openSegment points the WAL at segment n, which the next append creates.
func (t *Table) openSegment(n int) {
	t.walSeg = n
	t.walPath = t.walSegPath(n)
	t.walLen = 0
}

// walSegments lists WAL segment paths in replay order.
func (t *Table) walSegments() ([]string, error) {
	infos, err := t.fs.List(t.walDir())
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, fi := range infos {
		if !fi.IsDir {
			segs = append(segs, fi.Path)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// replayWAL applies every WAL segment, in order, into the MemStore. The
// trailing newline is a record's commit point: a final record left
// unterminated or failing its CRC — the torn tail a crash mid-append
// leaves behind — is dropped and counted. Anywhere else, a bad record is
// fatal (corruption, not truncation). Appends resume in a new segment
// after the last one found; torn reports whether a tail was dropped.
func (t *Table) replayWAL() (torn bool, err error) {
	var sources [][]byte
	segs, err := t.walSegments()
	if err != nil {
		return false, err
	}
	for _, seg := range segs {
		data, err := vfs.ReadFile(t.fs, seg)
		if err != nil {
			return false, err
		}
		sources = append(sources, data)
		n, err := fileNumber(seg)
		if err != nil {
			return false, err
		}
		if n >= t.walSeg {
			t.walSeg = n + 1
		}
	}
	for si, data := range sources {
		last := si == len(sources)-1
		if last && len(data) > 0 && data[len(data)-1] != '\n' {
			// Unterminated tail record: never committed, drop it.
			data = data[:bytes.LastIndexByte(data, '\n')+1]
			t.m.walTornDrops.Inc()
			torn = true
		}
		lines := recordLines(data)
		for li, line := range lines {
			key, c, err := parseWALLine(line)
			if err != nil {
				if last && li == len(lines)-1 {
					t.m.walTornDrops.Inc()
					torn = true
					continue
				}
				return false, err
			}
			t.applyToMem(key, c)
			t.m.walReplayed.Inc()
			if c.seq > t.seq {
				t.seq = c.seq
			}
		}
	}
	t.openSegment(t.walSeg)
	return torn, nil
}

// truncateWAL removes every WAL segment after a flush has made their
// records durable in a store file.
func (t *Table) truncateWAL() error {
	segs, err := t.walSegments()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := t.fs.Remove(seg, false); err != nil {
			return err
		}
	}
	t.openSegment(0)
	return nil
}

func (t *Table) applyToMem(key string, c cell) {
	if i, ok := search(t.mem, key); ok {
		t.memBytes -= int64(len(key) + len(t.mem[i].cell.value))
		t.mem[i].cell = c
	} else {
		t.mem = slices.Insert(t.mem, i, entry{key, c})
	}
	t.memBytes += int64(len(key) + len(c.value))
}

// --- mutations ---

// Put stores value under key.
func (t *Table) Put(key string, value []byte) error {
	if key == "" {
		return errors.New("kvstore: empty key")
	}
	t.seq++
	c := cell{seq: t.seq, value: append([]byte(nil), value...)}
	if err := t.appendWAL(key, c); err != nil {
		return err
	}
	t.applyToMem(key, c)
	t.m.puts.Inc()
	return t.maybeFlush()
}

// Delete writes a tombstone for key (idempotent).
func (t *Table) Delete(key string) error {
	if key == "" {
		return errors.New("kvstore: empty key")
	}
	t.seq++
	c := cell{seq: t.seq, tombstone: true}
	if err := t.appendWAL(key, c); err != nil {
		return err
	}
	t.applyToMem(key, c)
	t.m.deletes.Inc()
	return t.maybeFlush()
}

func (t *Table) maybeFlush() error {
	if t.memBytes < t.cfg.FlushThresholdBytes {
		return nil
	}
	return t.Flush()
}

// --- store files ---

type entry struct {
	key  string
	cell cell
}

// storeFile is one immutable store file as the table holds it: where it
// is, how many bytes of it count as the table's, and its parsed entries
// in key order.
//
// A file the table wrote has no marker. A reference is a key range
// [lo, hi) of a file under another table's root, which that table's
// directory keeps for as long as the marker exists: entries is the
// in-range sub-slice of the owner's parsed entries and size the share of
// the file's bytes in proportion. The marker, <root>/hfiles/NNNNNN.ref,
// holds one record — key: the file's path; value: size, lo and hi — so it
// is written and parsed, CRC and all, by the code every other record is.
type storeFile struct {
	path    string
	marker  string // "" for a file of the table's own
	lo, hi  string // a reference's range; hi "" is unbounded
	size    int64
	entries []entry
}

// markerValue encodes a reference's size and range as a record value.
func (f *storeFile) markerValue() []byte {
	v := binary.AppendUvarint(nil, uint64(f.size))
	v = binary.AppendUvarint(v, uint64(len(f.lo)))
	v = append(v, f.lo...)
	return append(v, f.hi...)
}

// parseMarker is the inverse of markerValue on a marker's one record.
func parseMarker(e entry) (storeFile, error) {
	v := e.cell.value
	size, n := binary.Uvarint(v)
	if n <= 0 {
		return storeFile{}, errors.New("bad size")
	}
	v = v[n:]
	loLen, n := binary.Uvarint(v)
	if n <= 0 || loLen > uint64(len(v)-n) {
		return storeFile{}, errors.New("bad range")
	}
	v = v[n:]
	return storeFile{path: e.key, size: int64(size), lo: string(v[:loLen]), hi: string(v[loLen:])}, nil
}

// clip returns the entries with lo <= key < hi (hi "" = unbounded).
func clip(entries []entry, lo, hi string) []entry {
	if lo != "" {
		entries = entries[sort.Search(len(entries), func(i int) bool { return entries[i].key >= lo }):]
	}
	if hi != "" {
		entries = entries[:sort.Search(len(entries), func(i int) bool { return entries[i].key >= hi })]
	}
	return entries
}

// search finds key in a key-sorted run: its index, or where it would go.
func search(entries []entry, key string) (int, bool) {
	// Hand-written binary search: the closure sort.Search takes costs a
	// call per probe on the hottest loop of a get.
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entries[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(entries) && entries[lo].key == key
}

// Flush writes the MemStore as a new sorted store file and truncates the
// WAL. A no-op on an empty MemStore.
func (t *Table) Flush() error {
	if len(t.mem) == 0 {
		return nil
	}
	n, err := t.writeStoreFile(t.mem)
	if err != nil {
		return err
	}
	t.mem, t.memBytes = nil, 0
	if err := t.truncateWAL(); err != nil {
		return err
	}
	t.Flushes++
	t.m.flushes.Inc()
	t.m.flushBytes.Add(n)
	if len(t.files) >= t.cfg.CompactTrigger {
		return t.Compact()
	}
	return nil
}

// writeStoreFile persists sorted entries as a new store file and adds it
// to the file list.
func (t *Table) writeStoreFile(entries []entry) (int64, error) {
	t.enc.reset()
	for _, e := range entries {
		t.enc.add(e.key, e.cell)
	}
	path := t.nextFilePath("")
	if err := vfs.WriteFile(t.fs, path, t.enc.buf); err != nil {
		return 0, err
	}
	size := int64(len(t.enc.buf))
	t.addStoreFile(storeFile{path: path, size: size, entries: entries})
	return size, nil
}

func (t *Table) addStoreFile(f storeFile) {
	t.files = append(t.files, f)
	t.diskBytes += f.size
}

// recordLines splits a file of records into its non-empty lines. It has
// no line limit: a bufio.Scanner stops at 64 KiB, which base64 takes a
// value of 48 KiB past.
func recordLines(data []byte) []string {
	lines := strings.Split(string(data), "\n")
	out := lines[:0]
	for _, l := range lines {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

// readRecords reads and parses a file of records; its errors name the
// file. Only Open calls it, for the store files and markers it finds:
// every file written later enters the file list with the entries it was
// written from.
func (t *Table) readRecords(path string) ([]entry, error) {
	data, err := vfs.ReadFile(t.fs, path)
	if err != nil {
		return nil, err
	}
	var out []entry
	for _, line := range recordLines(data) {
		key, c, err := parseWALLine(line)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, entry{key, c})
	}
	t.m.storeFileReads.Inc()
	return out, nil
}

// readMarker resolves a reference marker: the file it names is read and
// clipped to the marker's range.
func (t *Table) readMarker(marker string) (storeFile, error) {
	recs, err := t.readRecords(marker)
	if err != nil {
		return storeFile{}, err
	}
	if len(recs) != 1 {
		return storeFile{}, fmt.Errorf("%d records, want 1", len(recs))
	}
	f, err := parseMarker(recs[0])
	if err != nil {
		return storeFile{}, err
	}
	all, err := t.readRecords(f.path)
	if err != nil {
		return storeFile{}, err
	}
	f.marker = marker
	f.entries = clip(all, f.lo, f.hi)
	return f, nil
}

// Compact merges all store files into one with the merger reads walk,
// dropping overwritten versions and tombstoned keys (a major compaction at
// teaching scale); the MemStore stays where it is. References
// are rewritten with the rest: once Compactions has counted it, the table
// owns every byte it serves and no marker of its is left on disk.
func (t *Table) Compact() error {
	if n := len(t.files); n == 0 || (n == 1 && t.files[0].marker == "") {
		return nil
	}
	m := make(merger, len(t.files))
	for i := range t.files {
		m[i] = t.files[i].entries
	}
	var merged []entry
	for key, c, ok := m.next(); ok; key, c, ok = m.next() {
		if !c.tombstone { // tombstones can drop: no older files remain
			merged = append(merged, entry{key, c})
		}
	}
	// The merge is written before its inputs go, and they go oldest
	// first: whatever a failure leaves on disk still holds every row, and
	// never a put without the tombstone written after it.
	size, err := t.writeStoreFile(merged)
	if err != nil {
		return err
	}
	last := len(t.files) - 1
	old := t.files[:last]
	t.files, t.diskBytes = t.files[last:], size
	for _, f := range old {
		path := f.path
		if f.marker != "" {
			path = f.marker // the file itself belongs to another table
		}
		if err := t.fs.Remove(path, false); err != nil {
			return err
		}
	}
	t.Compactions++
	t.m.compactions.Inc()
	t.m.compactBytes.Add(size)
	return nil
}

// BulkLoad writes kvs directly as one sorted store file, bypassing the
// WAL and MemStore — the bulk-import path dataset loads use. Keys within
// kvs must be unique and non-empty, or nothing is written; sequence
// numbers are assigned in key order.
func (t *Table) BulkLoad(kvs []KV) error {
	if len(kvs) == 0 {
		return nil
	}
	sorted := append([]KV(nil), kvs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for i, kv := range sorted {
		if kv.Key == "" || i > 0 && kv.Key == sorted[i-1].Key {
			return fmt.Errorf("kvstore: bulk load key %q is empty or repeated", kv.Key)
		}
	}
	entries := make([]entry, len(sorted))
	for i, kv := range sorted {
		t.seq++
		entries[i] = entry{kv.Key, cell{seq: t.seq, value: append([]byte(nil), kv.Value...)}}
	}
	if _, err := t.writeStoreFile(entries); err != nil {
		return err
	}
	t.m.bulkLoads.Inc()
	if len(t.files) >= t.cfg.CompactTrigger {
		return t.Compact()
	}
	return nil
}

// Reference opens a new table at root that serves the rows of the source
// tables with start <= key < end (end "" = unbounded) without moving
// one: for each store file of a source that has rows in the range it
// writes a marker and takes the in-range sub-slice of the entries the
// source already holds. A source's own reference is passed on narrowed,
// so a marker always names a real store file, never another marker. The
// sources must be flushed, must not share keys in the range (versions
// compare within one table only), and their directories must outlive the
// new table's markers — its first compaction removes them. The new table
// takes the first source's filesystem and configuration. On an error the
// caller removes whatever root holds.
func Reference(root, start, end string, sources ...*Table) (*Table, error) {
	src0 := sources[0]
	t, err := Open(src0.fs, root, src0.cfg)
	if err != nil {
		return nil, err
	}
	for _, src := range sources {
		if len(src.mem) > 0 {
			return nil, fmt.Errorf("kvstore: reference to %s: MemStore not flushed", src.root)
		}
		if src.seq > t.seq {
			t.seq = src.seq
		}
		for _, f := range src.files {
			sub := clip(f.entries, start, end)
			if len(sub) == 0 {
				continue
			}
			ref := storeFile{
				path:    f.path,
				marker:  t.nextFilePath(refSuffix),
				lo:      max(f.lo, start),
				hi:      MinBound(f.hi, end),
				size:    f.size * int64(len(sub)) / int64(len(f.entries)),
				entries: sub,
			}
			t.enc.reset()
			t.enc.add(ref.path, cell{value: ref.markerValue()})
			if err := vfs.WriteFile(t.fs, ref.marker, t.enc.buf); err != nil {
				return nil, err
			}
			t.addStoreFile(ref)
		}
	}
	return t, nil
}

// MinBound is the smaller of two exclusive upper bounds, "" being +inf.
func MinBound(a, b string) string {
	if a == "" || (b != "" && b < a) {
		return b
	}
	return a
}

// References returns the roots of the tables whose store files this one
// still reads through markers, sorted and distinct; nil for a table that
// owns every file it serves.
func (t *Table) References() []string {
	var roots []string
	for _, f := range t.files {
		if f.marker != "" {
			dir, _ := vfs.Split(f.path) // <root>/hfiles/NNNNNN
			root, _ := vfs.Split(dir)
			roots = append(roots, root)
		}
	}
	slices.Sort(roots)
	return slices.Compact(roots)
}

// --- reads ---

// Get returns a fresh copy of the newest value for key, or ErrNotFound.
func (t *Table) Get(key string) ([]byte, error) {
	return t.GetInto(nil, key)
}

// GetInto is Get into a buffer the caller owns: the value is appended to
// buf[:0] and the result returned, so a caller that keeps the result as
// its next buf reads any number of rows without allocating.
func (t *Table) GetInto(buf []byte, key string) ([]byte, error) {
	t.m.gets.Inc()
	var best cell
	at, found := search(t.mem, key)
	if found {
		best = t.mem[at].cell
	}
	for i := range t.files {
		run := t.files[i].entries
		if j, ok := search(run, key); ok && (!found || run[j].cell.seq > best.seq) {
			best, found = run[j].cell, true
		}
	}
	if !found || best.tombstone {
		return nil, ErrNotFound
	}
	return append(buf[:0], best.value...), nil
}

// KV is one scan result.
type KV struct {
	Key   string
	Value []byte
}

// merger walks key-sorted entry slices as one: every distinct key once, in
// ascending order, with its newest cell (on a sequence tie, the cell of
// the first source that holds the key).
type merger [][]entry

// merger returns the table's runs clipped to [startKey, endKey): the
// MemStore's first, then each store file's.
func (t *Table) merger(startKey, endKey string) merger {
	m := make(merger, 1, len(t.files)+1)
	m[0] = clip(t.mem, startKey, endKey)
	for i := range t.files {
		m = append(m, clip(t.files[i].entries, startKey, endKey))
	}
	return m
}

// next pops the smallest key across the sources with its newest cell
// (tombstones included); ok is false once every source is exhausted.
func (m merger) next() (key string, newest cell, ok bool) {
	for _, src := range m {
		if len(src) > 0 && (!ok || src[0].key < key) {
			key, ok = src[0].key, true
		}
	}
	if !ok {
		return "", cell{}, false
	}
	first := true
	for i, src := range m {
		if len(src) > 0 && src[0].key == key {
			if first || src[0].cell.seq > newest.seq {
				newest, first = src[0].cell, false
			}
			m[i] = src[1:]
		}
	}
	return key, newest, true
}

// ScanRange returns up to limit live key-value pairs with
// startKey <= key < endKey (endKey "" = unbounded), in key order,
// merging MemStore and store files with newest-version-wins semantics —
// without materializing the whole range. limit <= 0 means unlimited.
//
// The second result is the resume cursor: pass it as the next call's
// startKey to continue the scan; "" means the range is exhausted. This
// is the bounded iterator region scans run on.
func (t *Table) ScanRange(startKey, endKey string, limit int) ([]KV, string, error) {
	t.m.scans.Inc()
	var out []KV
	m := t.merger(startKey, endKey)
	for key, c, ok := m.next(); ok; key, c, ok = m.next() {
		if c.tombstone {
			continue
		}
		out = append(out, KV{Key: key, Value: append([]byte(nil), c.value...)})
		if limit > 0 && len(out) >= limit {
			return out, key + "\x00", nil
		}
	}
	return out, "", nil
}

// Scan returns all live key-value pairs with startKey <= key < endKey
// (endKey "" = unbounded), in key order: ScanRange without a limit.
func (t *Table) Scan(startKey, endKey string) ([]KV, error) {
	kvs, _, err := t.ScanRange(startKey, endKey, 0)
	return kvs, err
}

// MidKey returns the median live key — the natural split point for a
// region hosting this table — or "" when the table has fewer than two
// live keys. It walks the parsed entries twice, to count and to pick,
// and copies no value.
func (t *Table) MidKey() (string, error) {
	live := 0
	m := t.merger("", "")
	for _, c, ok := m.next(); ok; _, c, ok = m.next() {
		if !c.tombstone {
			live++
		}
	}
	if live < 2 {
		return "", nil
	}
	m = t.merger("", "")
	for i := 0; ; {
		key, c, _ := m.next()
		if c.tombstone {
			continue
		}
		if i == live/2 {
			return key, nil
		}
		i++
	}
}

// StoreFileCount reports the current number of store files.
func (t *Table) StoreFileCount() int { return len(t.files) }

// MemStoreBytes reports the current MemStore footprint.
func (t *Table) MemStoreBytes() int64 { return t.memBytes }

// SizeBytes reports the table's total footprint (MemStore + store
// files) — the size signal region auto-splitting keys on.
func (t *Table) SizeBytes() int64 { return t.memBytes + t.diskBytes }
