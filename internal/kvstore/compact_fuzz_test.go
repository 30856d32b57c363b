package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/vfs"
)

// mapMerge is the compaction rule written the plain way, as the oracle:
// each key's newest cell across the files, oldest file first, so a
// sequence tie keeps the oldest file's cell; tombstones dropped; sorted by
// key.
func mapMerge(files []storeFile) []entry {
	latest := map[string]cell{}
	for _, f := range files {
		for _, e := range f.entries {
			if cur, ok := latest[e.key]; !ok || e.cell.seq > cur.seq {
				latest[e.key] = e.cell
			}
		}
	}
	var merged []entry
	for k, c := range latest {
		if !c.tombstone {
			merged = append(merged, entry{k, c})
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].key < merged[j].key })
	return merged
}

// FuzzCompactMatchesMapMerge decodes the fuzz bytes into puts, deletes,
// flushes and compactions over eight keys and holds every Compact that
// merges to mapMerge: afterwards the table has one store file, the only
// file of its hfiles directory, whose entries and bytes on the filesystem
// are the oracle's. An input whose first byte is odd first runs its ops
// over two sources, one per half of the key space, and continues on a
// Reference over both, so compactions that rewrite markers are covered.
func FuzzCompactMatchesMapMerge(f *testing.F) {
	f.Add([]byte{0, 0, 4, 9, 2, 1, 5, 2, 3})
	f.Add([]byte{1, 0, 16, 20, 2, 5, 0x30, 2, 7, 0x42, 3, 1, 2, 3})
	f.Add([]byte{1, 0xff, 0x10, 0, 4, 8, 12, 16, 20, 24, 28, 2, 1, 17, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		fs := vfs.NewMemFS()
		cfg := Config{FlushThresholdBytes: 1 << 40, CompactTrigger: 1 << 30}
		open := func(root string) *Table {
			tbl, err := Open(fs, root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return tbl
		}
		apply := func(tbl *Table, op byte) {
			key := fmt.Sprintf("k%d", op>>2&7)
			var err error
			switch op & 3 {
			case 0:
				err = tbl.Put(key, []byte{op, op >> 5})
			case 1:
				err = tbl.Delete(key)
			case 2:
				err = tbl.Flush()
			case 3:
				want := mapMerge(tbl.files)
				merges := len(tbl.files) > 1 || len(tbl.files) == 1 && tbl.files[0].marker != ""
				if err = tbl.Compact(); err == nil && merges {
					checkCompacted(t, fs, tbl, want)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		mode, ops := ops[0], ops[1:]
		if mode&1 == 0 {
			tbl := open("/t")
			for _, op := range ops {
				apply(tbl, op)
			}
			return
		}
		// Sources: keys k0..k3 go to /a, k4..k7 to /b; the reference's
		// range, [k<lo>, k<hi>) or [k<lo>, +inf), comes from the mode byte.
		half := len(ops) / 2
		a, b := open("/a"), open("/b")
		for _, op := range ops[:half] {
			if op>>2&7 < 4 {
				apply(a, op)
			} else {
				apply(b, op)
			}
		}
		for _, src := range []*Table{a, b} {
			if err := src.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		start, end := fmt.Sprintf("k%d", mode>>1&3), ""
		if hi := mode >> 3 & 7; hi != 0 {
			end = fmt.Sprintf("k%d", hi)
		}
		ref, err := Reference("/t", start, end, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops[half:] {
			apply(ref, op)
		}
		apply(ref, 3)
	})
}

// checkCompacted requires tbl to hold exactly one store file, alone in its
// hfiles directory, whose entries and bytes are want's.
func checkCompacted(t *testing.T, fs vfs.FileSystem, tbl *Table, want []entry) {
	t.Helper()
	if len(tbl.files) != 1 {
		t.Fatalf("%s: %d store files after Compact, want 1", tbl.root, len(tbl.files))
	}
	f := tbl.files[0]
	if f.marker != "" {
		t.Fatalf("%s: compacted into a reference %s", tbl.root, f.marker)
	}
	infos, err := fs.List(tbl.hfileDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Path != f.path {
		t.Fatalf("%s: hfiles directory holds %v, want only %s", tbl.root, infos, f.path)
	}
	if len(f.entries) != len(want) {
		t.Fatalf("%s: %d entries after Compact, oracle has %d", tbl.root, len(f.entries), len(want))
	}
	var enc recordEncoder
	for i, e := range f.entries {
		w := want[i]
		if e.key != w.key || e.cell.seq != w.cell.seq || e.cell.tombstone != w.cell.tombstone || !bytes.Equal(e.cell.value, w.cell.value) {
			t.Fatalf("%s: entry %d is (%q, %+v), oracle has (%q, %+v)", tbl.root, i, e.key, e.cell, w.key, w.cell)
		}
		enc.add(w.key, w.cell)
	}
	data, err := vfs.ReadFile(fs, f.path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, enc.buf) {
		t.Fatalf("%s: %s holds %q, oracle encodes %q", tbl.root, f.path, data, enc.buf)
	}
	if f.size != int64(len(data)) || tbl.diskBytes != f.size {
		t.Fatalf("%s: size %d, diskBytes %d, file has %d bytes", tbl.root, f.size, tbl.diskBytes, len(data))
	}
}
