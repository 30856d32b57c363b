package kvstore_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/vfs"
)

// The two files under testdata/ were written by the commit before the WAL
// learned to append (2fa3b6d: fmt.Sprintf + EncodeToString per record),
// from fixtureOps: the WAL segment those mutations leave, and the store
// file a flush of them writes. The record format has one encoder now and
// it must still be that format, byte for byte, in both directions.
func fixtureOps() []mutation {
	var every [256]byte
	for i := range every {
		every[i] = byte(i)
	}
	return []mutation{
		{key: "row-a", val: "plain"},
		{key: "tab\tin\tkey", val: "tab\tand\nnewline in value"},
		{key: "bin\x00\xff", val: string(every[:])},
		{key: "empty-value", val: ""},
		{key: "row-a", del: true},
		{key: "row-a", val: "written again"},
		{key: "never-written", del: true},
		{key: "ключ", val: "значение"},
		{key: "long", val: strings.Repeat("0123456789", 40)},
		{key: "empty-value", del: true},
	}
}

var fixtureCfg = kvstore.Config{FlushThresholdBytes: 1 << 40, WALSegmentBytes: 1 << 20}

func TestParentFormatFixture(t *testing.T) {
	wantWAL, err := os.ReadFile("testdata/parent_wal_segment")
	if err != nil {
		t.Fatal(err)
	}
	wantStore, err := os.ReadFile("testdata/parent_store_file")
	if err != nil {
		t.Fatal(err)
	}

	// Forward: the same mutations leave the same segment.
	fs := vfs.NewMemFS()
	tbl, err := kvstore.Open(fs, "/t", fixtureCfg)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	for _, o := range fixtureOps() {
		if err := o.do(tbl); err != nil {
			t.Fatal(err)
		}
		o.record(model)
	}
	if got, err := vfs.ReadFile(fs, "/t/wal.d/000000"); err != nil || !bytes.Equal(got, wantWAL) {
		t.Fatalf("WAL segment differs from the one the parent wrote (err=%v):\n got %q\nwant %q", err, got, wantWAL)
	}

	// Back: the parent's segment is decoded, and re-encoded by a flush —
	// tombstones included — into the parent's store file.
	old := vfs.NewMemFS()
	if err := vfs.WriteFile(old, "/t/wal.d/000000", wantWAL); err != nil {
		t.Fatal(err)
	}
	re, err := kvstore.Open(old, "/t", fixtureCfg)
	if err != nil {
		t.Fatal(err)
	}
	diffModels(t, scanMap(t, re), model, "replay of the parent's segment")
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := vfs.ReadFile(old, "/t/hfiles/000000"); err != nil || !bytes.Equal(got, wantStore) {
		t.Fatalf("store file differs from the one the parent flushed (err=%v):\n got %q\nwant %q", err, got, wantStore)
	}
	// And the parent's store file reads back as the same table.
	cold := vfs.NewMemFS()
	if err := vfs.WriteFile(cold, "/t/hfiles/000000", wantStore); err != nil {
		t.Fatal(err)
	}
	fromStore, err := kvstore.Open(cold, "/t", fixtureCfg)
	if err != nil {
		t.Fatal(err)
	}
	diffModels(t, scanMap(t, fromStore), model, "the parent's store file")
}

// TestReferenceMarkerFixture pins the third use of the record line: the
// marker a daughter table keeps per parent store file. The marker under
// testdata/ was written by the commit that introduced references, for the
// rows ["empty-value", "row-b") of the parent's store file: a change to
// the record codec or to the marker's value layout that an existing
// daughter directory could not be reopened after shows up here.
func TestReferenceMarkerFixture(t *testing.T) {
	wantStore, err := os.ReadFile("testdata/parent_store_file")
	if err != nil {
		t.Fatal(err)
	}
	wantMarker, err := os.ReadFile("testdata/reference_marker")
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	for _, o := range fixtureOps() {
		o.record(model)
	}
	for k := range model {
		if k < "empty-value" || k >= "row-b" {
			delete(model, k)
		}
	}

	// Forward: a reference onto the parent's store file writes the marker.
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/p/hfiles/000000", wantStore); err != nil {
		t.Fatal(err)
	}
	parent, err := kvstore.Open(fs, "/p", fixtureCfg)
	if err != nil {
		t.Fatal(err)
	}
	daughter, err := kvstore.Reference("/d", "empty-value", "row-b", parent)
	if err != nil {
		t.Fatal(err)
	}
	diffModels(t, scanMap(t, daughter), model, "the daughter")
	if got, err := vfs.ReadFile(fs, "/d/hfiles/000000.ref"); err != nil || !bytes.Equal(got, wantMarker) {
		t.Fatalf("marker differs from the pinned one (err=%v):\n got %q\nwant %q", err, got, wantMarker)
	}

	// Back: the pinned marker beside the parent's file opens as that table.
	cold := vfs.NewMemFS()
	if err := vfs.WriteFile(cold, "/p/hfiles/000000", wantStore); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(cold, "/d/hfiles/000000.ref", wantMarker); err != nil {
		t.Fatal(err)
	}
	re, err := kvstore.Open(cold, "/d", fixtureCfg)
	if err != nil {
		t.Fatal(err)
	}
	diffModels(t, scanMap(t, re), model, "the pinned marker")
	if re.SizeBytes() != daughter.SizeBytes() || fmt.Sprint(re.References()) != "[/p]" {
		t.Fatalf("reopened with %d bytes and references %v, want %d and [/p]",
			re.SizeBytes(), re.References(), daughter.SizeBytes())
	}
}
