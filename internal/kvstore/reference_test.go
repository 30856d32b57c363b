package kvstore_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/vfs"
)

// parentAndDaughter builds a flushed 40-row table at /p and a daughter at
// /d over its rows [row010, row030).
func parentAndDaughter(t *testing.T) (fs *vfs.MemFS, model map[string]string) {
	t.Helper()
	fs = vfs.NewMemFS()
	parent, err := kvstore.Open(fs, "/p", kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	model = map[string]string{}
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("row%03d", i), fmt.Sprintf("value-%d", i)
		if err := parent.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		if i >= 10 && i < 30 {
			model[k] = v
		}
	}
	if err := parent.Flush(); err != nil {
		t.Fatal(err)
	}
	daughter, err := kvstore.Reference("/d", "row010", "row030", parent)
	if err != nil {
		t.Fatal(err)
	}
	diffModels(t, scanMap(t, daughter), model, "the daughter")
	return fs, model
}

// rewrite replaces a file's contents.
func rewrite(t *testing.T, fs vfs.FileSystem, path string, data []byte) {
	t.Helper()
	if err := fs.Remove(path, false); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, path, data); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFailsLoudlyOnBadStoreFiles: Open and the marker resolution
// inside it are the only places a store file is read, so they are where a
// bad one must be reported — with the path — rather than skipped, which
// is how a get used to answer ErrNotFound, or an older version, for a row
// that exists.
func TestOpenFailsLoudlyOnBadStoreFiles(t *testing.T) {
	const storeFile, marker = "/p/hfiles/000000", "/d/hfiles/000000.ref"
	mustFail := func(t *testing.T, fs vfs.FileSystem, root, path string) error {
		t.Helper()
		tbl, err := kvstore.Open(fs, root, kvstore.Config{})
		if err == nil {
			t.Fatalf("Open(%s) succeeded with %d store files", root, tbl.StoreFileCount())
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("Open(%s) failed without naming %s: %v", root, path, err)
		}
		return err
	}
	t.Run("corrupt store file", func(t *testing.T) {
		fs, _ := parentAndDaughter(t)
		data, err := vfs.ReadFile(fs, storeFile)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		rewrite(t, fs, storeFile, data)
		mustFail(t, fs, "/p", storeFile)
		// The daughter reads the same file: named with the marker it
		// was reached through.
		err = mustFail(t, fs, "/d", marker)
		if !strings.Contains(err.Error(), storeFile) {
			t.Fatalf("the daughter's error does not name the file: %v", err)
		}
	})
	t.Run("torn marker", func(t *testing.T) {
		fs, model := parentAndDaughter(t)
		data, err := vfs.ReadFile(fs, marker)
		if err != nil {
			t.Fatal(err)
		}
		// Every proper prefix short of the record's last byte (the final
		// newline adds nothing the checksum does not already cover).
		for cut := 0; cut < len(data)-1; cut++ {
			rewrite(t, fs, marker, data[:cut])
			mustFail(t, fs, "/d", marker)
		}
		rewrite(t, fs, marker, data)
		re, err := kvstore.Open(fs, "/d", kvstore.Config{})
		if err != nil {
			t.Fatal(err)
		}
		diffModels(t, scanMap(t, re), model, "the daughter, marker restored")
	})
	t.Run("marker naming a missing file", func(t *testing.T) {
		fs, _ := parentAndDaughter(t)
		if err := fs.Remove(storeFile, false); err != nil {
			t.Fatal(err)
		}
		if err := mustFail(t, fs, "/d", marker); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("want ErrNotExist underneath, got %v", err)
		}
	})
	t.Run("an open table reads nothing", func(t *testing.T) {
		fs, model := parentAndDaughter(t)
		daughter, err := kvstore.Open(fs, "/d", kvstore.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("/p", true); err != nil {
			t.Fatal(err)
		}
		diffModels(t, scanMap(t, daughter), model, "the daughter, files gone underneath")
		if v, err := daughter.Get("row017"); err != nil || string(v) != "value-17" {
			t.Fatalf("Get(row017) = %q, %v", v, err)
		}
	})
}

// TestReferenceNarrowsReferences: a daughter of a daughter points at the
// grandparent's file under the narrower range — never at a marker — and a
// compaction leaves the table its own file and no marker.
func TestReferenceNarrowsReferences(t *testing.T) {
	fs, model := parentAndDaughter(t)
	daughter, err := kvstore.Open(fs, "/d", kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := daughter.Put("row012", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	model["row012"] = "rewritten"
	if err := daughter.Flush(); err != nil {
		t.Fatal(err)
	}
	grand, err := kvstore.Reference("/g", "row005", "row020", daughter)
	if err != nil {
		t.Fatal(err)
	}
	for k := range model {
		if k >= "row020" {
			delete(model, k)
		}
	}
	diffModels(t, scanMap(t, grand), model, "the granddaughter")
	if got := fmt.Sprint(grand.References()); got != "[/d /p]" {
		t.Fatalf("references %s, want the daughter's own file and the grandparent's: [/d /p]", got)
	}
	// The daughter's directory can go as far as the grandparent's rows are
	// concerned: reopen with only its own store file left in it.
	if err := fs.Remove("/d/hfiles/000000.ref", false); err != nil {
		t.Fatal(err)
	}
	re, err := kvstore.Open(fs, "/g", kvstore.Config{})
	if err != nil {
		t.Fatalf("the granddaughter's markers lean on the daughter's: %v", err)
	}
	diffModels(t, scanMap(t, re), model, "the granddaughter reopened")
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	diffModels(t, scanMap(t, re), model, "the granddaughter compacted")
	infos, err := fs.List("/g/hfiles")
	if err != nil {
		t.Fatal(err)
	}
	if len(re.References()) != 0 || len(infos) != 1 || strings.HasSuffix(infos[0].Path, ".ref") {
		t.Fatalf("after compaction: references %v, files %v", re.References(), infos)
	}
}
