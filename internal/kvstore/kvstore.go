// Package kvstore is a teaching-scale HBase: a sorted, versioned
// key-value store layered on HDFS, matching the architecture covered by
// the course's HBase/Hive lecture (Fall 2013 added "one lecture
// introducing HBase/Hive ... to provide a more comprehensive view of the
// Hadoop ecosystem"). It implements the essential mechanics — a
// write-ahead log on HDFS, an in-memory MemStore, sorted immutable
// store files (HFiles) flushed to HDFS, read-path merging across
// MemStore and store files, tombstone deletes, minor compaction, and
// range scans — over any vfs.FileSystem, so a table survives whatever
// the underlying DFS survives.
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
//     (the block cache at teaching scale), so a point read is a binary
//     search per file and never touches the filesystem.
package kvstore

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// ErrNotFound is returned by Get for absent (or deleted) keys.
var ErrNotFound = errors.New("kvstore: key not found")

// Metric names emitted when a table is given an obs registry. The full
// taxonomy is documented in docs/OBSERVABILITY.md.
const (
	MetricPuts           = "kv.puts"
	MetricDeletes        = "kv.deletes"
	MetricGets           = "kv.gets"
	MetricScans          = "kv.scans"
	MetricFlushes        = "kv.flushes"
	MetricFlushBytes     = "kv.flush_bytes"
	MetricCompactions    = "kv.compactions"
	MetricCompactBytes   = "kv.compact_bytes"
	MetricWALAppends     = "kv.wal_appends"
	MetricWALBytes       = "kv.wal_bytes"
	MetricWALReplayed    = "kv.wal_replayed_records"
	MetricWALTornDrops   = "kv.wal_torn_drops"
	MetricBulkLoads      = "kv.bulk_loads"
	MetricStoreFileReads = "kv.store_file_reads"
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
		walTornDrops:   r.Counter(MetricWALTornDrops),
		bulkLoads:      r.Counter(MetricBulkLoads),
		storeFileReads: r.Counter(MetricStoreFileReads),
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
//	<root>/wal.d/NNNNNN   capped write-ahead-log segments
//	<root>/hfiles/NNNNNN  sorted immutable store files
type Table struct {
	fs   vfs.FileSystem
	root string
	cfg  Config
	m    kvMetrics

	mem      map[string]cell
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
		mem:  map[string]cell{},
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
		entries, err := t.readStoreFile(fi.Path)
		if err != nil {
			return nil, err
		}
		t.addStoreFile(storeFile{path: fi.Path, size: fi.Size, entries: entries})
		// Track the highest sequence number present in store files.
		for _, e := range entries {
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

func fileNumber(path string) (int, error) {
	_, name := vfs.Split(path)
	return strconv.Atoi(name)
}

// --- WAL ---

// A record is one logged mutation, encoded as a single text line:
// seq <TAB> P|D <TAB> b64(key) <TAB> b64(value) <TAB> crc32
// The trailing checksum is what makes a torn record (a crash mid-append)
// reliably detectable: a truncated base64 field can still decode, but it
// cannot still match the CRC. Store files hold the same lines, sorted.

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
		sc := bufio.NewScanner(bytes.NewReader(data))
		var lines []string
		for sc.Scan() {
			if sc.Text() != "" {
				lines = append(lines, sc.Text())
			}
		}
		if err := sc.Err(); err != nil {
			return false, err
		}
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
	if old, ok := t.mem[key]; ok {
		t.memBytes -= int64(len(key) + len(old.value))
	}
	t.mem[key] = c
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
// is, how many bytes it is, and its parsed entries in key order.
type storeFile struct {
	path    string
	size    int64
	entries []entry
}

// find returns the file's cell for key.
func (f *storeFile) find(key string) (cell, bool) {
	// Hand-written binary search: the closure sort.Search takes costs a
	// call per probe on the hottest loop of a get.
	lo, hi := 0, len(f.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.entries[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(f.entries) && f.entries[lo].key == key {
		return f.entries[lo].cell, true
	}
	return cell{}, false
}

// Flush writes the MemStore as a new sorted store file and truncates the
// WAL. A no-op on an empty MemStore.
func (t *Table) Flush() error {
	if len(t.mem) == 0 {
		return nil
	}
	entries := make([]entry, 0, len(t.mem))
	for k, c := range t.mem {
		entries = append(entries, entry{k, c})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	path := vfs.Join(t.hfileDir(), fmt.Sprintf("%06d", t.nextFile))
	n, err := t.writeStoreFile(path, entries)
	if err != nil {
		return err
	}
	t.nextFile++
	t.mem = map[string]cell{}
	t.memBytes = 0
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
func (t *Table) writeStoreFile(path string, entries []entry) (int64, error) {
	t.enc.reset()
	for _, e := range entries {
		t.enc.add(e.key, e.cell)
	}
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

// readStoreFile reads and parses a store file. Only Open calls it: every
// file written later enters the file list with the entries it was
// written from.
func (t *Table) readStoreFile(path string) ([]entry, error) {
	data, err := vfs.ReadFile(t.fs, path)
	if err != nil {
		return nil, err
	}
	var out []entry
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if sc.Text() == "" {
			continue
		}
		key, c, err := parseWALLine(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("kvstore: store file %s: %w", path, err)
		}
		out = append(out, entry{key, c})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("kvstore: store file %s: %w", path, err)
	}
	t.m.storeFileReads.Inc()
	return out, nil
}

// removeStoreFiles deletes the first n store files.
func (t *Table) removeStoreFiles(n int) error {
	for _, f := range t.files[:n] {
		if err := t.fs.Remove(f.path, false); err != nil {
			return err
		}
	}
	for _, f := range t.files[:n] {
		t.diskBytes -= f.size
	}
	t.files = append(t.files[:0], t.files[n:]...)
	return nil
}

// Compact merges all store files into one, dropping overwritten versions
// and tombstoned keys (a major compaction at teaching scale).
func (t *Table) Compact() error {
	n := len(t.files)
	if n <= 1 {
		return nil
	}
	latest := map[string]cell{}
	for _, f := range t.files {
		for _, e := range f.entries {
			if cur, ok := latest[e.key]; !ok || e.cell.seq > cur.seq {
				latest[e.key] = e.cell
			}
		}
	}
	var merged []entry
	for k, c := range latest {
		if c.tombstone {
			continue // tombstones can drop: no older files remain
		}
		merged = append(merged, entry{k, c})
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].key < merged[j].key })
	if err := t.removeStoreFiles(n); err != nil {
		return err
	}
	path := vfs.Join(t.hfileDir(), fmt.Sprintf("%06d", t.nextFile))
	size, err := t.writeStoreFile(path, merged)
	if err != nil {
		return err
	}
	t.nextFile++
	t.Compactions++
	t.m.compactions.Inc()
	t.m.compactBytes.Add(size)
	return nil
}

// BulkLoad writes kvs directly as one sorted store file, bypassing the
// WAL and MemStore — the bulk-import path dataset loads and region
// splits/merges use. Keys within kvs must be unique; later sequence
// numbers are assigned in slice order after sorting by key.
func (t *Table) BulkLoad(kvs []KV) error {
	if len(kvs) == 0 {
		return nil
	}
	sorted := append([]KV(nil), kvs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	entries := make([]entry, len(sorted))
	for i, kv := range sorted {
		t.seq++
		entries[i] = entry{kv.Key, cell{seq: t.seq, value: append([]byte(nil), kv.Value...)}}
	}
	path := vfs.Join(t.hfileDir(), fmt.Sprintf("%06d", t.nextFile))
	if _, err := t.writeStoreFile(path, entries); err != nil {
		return err
	}
	t.nextFile++
	t.m.bulkLoads.Inc()
	if len(t.files) >= t.cfg.CompactTrigger {
		return t.Compact()
	}
	return nil
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
	best, found := t.mem[key]
	for i := range t.files {
		if c, ok := t.files[i].find(key); ok && (!found || c.seq > best.seq) {
			best, found = c, true
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

// ScanRange returns up to limit live key-value pairs with
// startKey <= key < endKey (endKey "" = unbounded), in key order,
// merging MemStore and store files with newest-version-wins semantics —
// without materializing the whole range. limit <= 0 means unlimited.
//
// The second result is the resume cursor: pass it as the next call's
// startKey to continue the scan; "" means the range is exhausted. This
// is the bounded iterator region scans and splits run on.
func (t *Table) ScanRange(startKey, endKey string, limit int) ([]KV, string, error) {
	t.m.scans.Inc()
	// Sources: the MemStore's in-range keys (collected then sorted) and
	// each store file positioned at startKey by binary search.
	inRange := func(k string) bool {
		return k >= startKey && (endKey == "" || k < endKey)
	}
	var sources [][]entry
	if len(t.mem) > 0 {
		var memEntries []entry
		for k, c := range t.mem {
			if inRange(k) {
				memEntries = append(memEntries, entry{k, c})
			}
		}
		sort.Slice(memEntries, func(i, j int) bool { return memEntries[i].key < memEntries[j].key })
		if len(memEntries) > 0 {
			sources = append(sources, memEntries)
		}
	}
	for _, f := range t.files {
		entries := f.entries
		i := sort.Search(len(entries), func(i int) bool { return entries[i].key >= startKey })
		if i < len(entries) && inRange(entries[i].key) {
			sources = append(sources, entries[i:])
		}
	}
	heads := make([]int, len(sources))
	var out []KV
	for {
		// Find the smallest key across source heads.
		minKey := ""
		for s, src := range sources {
			if heads[s] >= len(src) || !inRange(src[heads[s]].key) {
				continue
			}
			if k := src[heads[s]].key; minKey == "" || k < minKey {
				minKey = k
			}
		}
		if minKey == "" {
			return out, "", nil // every source exhausted within the range
		}
		// Resolve the newest cell for minKey, advancing every source
		// positioned on it.
		var best cell
		for s, src := range sources {
			if heads[s] < len(src) && src[heads[s]].key == minKey {
				if c := src[heads[s]].cell; c.seq > best.seq {
					best = c
				}
				heads[s]++
			}
		}
		if !best.tombstone {
			out = append(out, KV{Key: minKey, Value: append([]byte(nil), best.value...)})
			if limit > 0 && len(out) >= limit {
				return out, minKey + "\x00", nil
			}
		}
	}
}

// Scan returns all live key-value pairs with startKey <= key < endKey
// (endKey "" = unbounded), in key order. It is a wrapper that drains
// ScanRange.
func (t *Table) Scan(startKey, endKey string) ([]KV, error) {
	var out []KV
	cur := startKey
	for {
		kvs, next, err := t.ScanRange(cur, endKey, 1024)
		if err != nil {
			return nil, err
		}
		out = append(out, kvs...)
		if next == "" {
			return out, nil
		}
		cur = next
	}
}

// MidKey returns the median live key — the natural split point for a
// region hosting this table — or "" when the table has fewer than two
// live keys.
func (t *Table) MidKey() (string, error) {
	var keys []string
	cur := ""
	for {
		kvs, next, err := t.ScanRange(cur, "", 1024)
		if err != nil {
			return "", err
		}
		for _, kv := range kvs {
			keys = append(keys, kv.Key)
		}
		if next == "" {
			break
		}
		cur = next
	}
	if len(keys) < 2 {
		return "", nil
	}
	return keys[len(keys)/2], nil
}

// Len returns the number of live keys.
func (t *Table) Len() (int, error) {
	kvs, err := t.Scan("", "")
	if err != nil {
		return 0, err
	}
	return len(kvs), nil
}

// StoreFileCount reports the current number of store files.
func (t *Table) StoreFileCount() int { return len(t.files) }

// MemStoreBytes reports the current MemStore footprint.
func (t *Table) MemStoreBytes() int64 { return t.memBytes }

// DiskBytes reports the total store-file footprint.
func (t *Table) DiskBytes() int64 { return t.diskBytes }

// SizeBytes reports the table's total footprint (MemStore + store
// files) — the size signal region auto-splitting keys on.
func (t *Table) SizeBytes() int64 { return t.memBytes + t.diskBytes }
