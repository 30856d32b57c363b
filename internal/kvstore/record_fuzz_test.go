package kvstore

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// FuzzRecord feeds arbitrary lines to the one record parser — a WAL line,
// a store-file line and a reference marker are the same thing — and holds
// it to two properties: it never panics, and what it accepts survives the
// encoder: parsing the re-encoded record gives the record back, and
// encoding that gives the same bytes again. A record that parses is also
// offered to the marker decoder, which must not panic on it and must
// round-trip what it accepts.
func FuzzRecord(f *testing.F) {
	for _, name := range []string{"parent_wal_segment", "parent_store_file", "reference_marker"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			f.Add(line)
		}
	}
	f.Add("")
	f.Add("1\tP\t\t\t0")
	f.Add("18446744073709551615\tD\tQQ==\t\t1")
	f.Fuzz(func(t *testing.T, line string) {
		key, c, err := parseWALLine(line)
		if err != nil {
			return
		}
		var enc recordEncoder
		enc.add(key, c)
		first := string(enc.buf)
		if !strings.HasSuffix(first, "\n") || strings.Count(first, "\n") != 1 {
			t.Fatalf("%q encodes to %q: not one terminated line", line, first)
		}
		key2, c2, err := parseWALLine(strings.TrimSuffix(first, "\n"))
		if err != nil {
			t.Fatalf("%q parses, its encoding %q does not: %v", line, first, err)
		}
		if key2 != key || c2.seq != c.seq || c2.tombstone != c.tombstone || !bytes.Equal(c2.value, c.value) {
			t.Fatalf("%q: record (%q, %+v) came back from %q as (%q, %+v)", line, key, c, first, key2, c2)
		}
		enc.reset()
		enc.add(key2, c2)
		if string(enc.buf) != first {
			t.Fatalf("%q: encoding is not stable: %q then %q", line, first, enc.buf)
		}

		ref, err := parseMarker(entry{key, c})
		if err != nil {
			return
		}
		back, err := parseMarker(entry{ref.path, cell{value: ref.markerValue()}})
		if err != nil || back.path != ref.path || back.size != ref.size || back.lo != ref.lo || back.hi != ref.hi {
			t.Fatalf("marker %+v came back as %+v, %v", ref, back, err)
		}
	})
}
