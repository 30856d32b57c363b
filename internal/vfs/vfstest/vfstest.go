// Package vfstest provides the FileSystem conformance suite. Every
// backend — MemFS, OsFS and the HDFS client — must pass it, which is the
// mechanical guarantee behind the course's claim that a MapReduce program
// reruns on HDFS without modification.
package vfstest

import (
	"errors"
	"io"
	"testing"

	"repro/internal/vfs"
)

// Run exercises the FileSystem contract against the implementation built
// by mk (called once per subtest, so each subtest gets a fresh tree).
func Run(t *testing.T, name string, mk func(t *testing.T) vfs.FileSystem) {
	t.Run(name+"/CreateReadBack", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/a/b/c.txt", []byte("hello")); err != nil {
			t.Fatal(err)
		}
		got, err := vfs.ReadFile(fs, "/a/b/c.txt")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "hello" {
			t.Fatalf("read %q", got)
		}
	})
	t.Run(name+"/CreateExistingFails", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/x.txt", []byte("1")); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Create("/x.txt"); !errors.Is(err, vfs.ErrExist) {
			t.Fatalf("want ErrExist, got %v", err)
		}
	})
	t.Run(name+"/CreateWithoutParentFails", func(t *testing.T) {
		fs := mk(t)
		if _, err := fs.Create("/no/parent.txt"); err == nil {
			t.Fatal("create without parent succeeded")
		}
	})
	t.Run(name+"/OpenMissing", func(t *testing.T) {
		fs := mk(t)
		if _, err := fs.Open("/ghost"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("want ErrNotExist, got %v", err)
		}
	})
	t.Run(name+"/OpenDirFails", func(t *testing.T) {
		fs := mk(t)
		if err := fs.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open("/d"); !errors.Is(err, vfs.ErrIsDir) {
			t.Fatalf("want ErrIsDir, got %v", err)
		}
	})
	t.Run(name+"/StatFileAndDir", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/d/f", []byte("abc")); err != nil {
			t.Fatal(err)
		}
		fi, err := fs.Stat("/d/f")
		if err != nil || fi.IsDir || fi.Size != 3 {
			t.Fatalf("stat file: %+v err=%v", fi, err)
		}
		di, err := fs.Stat("/d")
		if err != nil || !di.IsDir {
			t.Fatalf("stat dir: %+v err=%v", di, err)
		}
	})
	t.Run(name+"/ListSorted", func(t *testing.T) {
		fs := mk(t)
		for _, p := range []string{"/dir/c", "/dir/a", "/dir/b"} {
			if err := vfs.WriteFile(fs, p, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Mkdir("/dir/sub"); err != nil {
			t.Fatal(err)
		}
		infos, err := fs.List("/dir")
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 4 {
			t.Fatalf("list returned %d entries", len(infos))
		}
		for i := 1; i < len(infos); i++ {
			if infos[i-1].Path >= infos[i].Path {
				t.Fatalf("unsorted list: %v", infos)
			}
		}
	})
	t.Run(name+"/ListFileFails", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.List("/f"); !errors.Is(err, vfs.ErrNotDir) {
			t.Fatalf("want ErrNotDir, got %v", err)
		}
	})
	t.Run(name+"/MkdirIdempotent", func(t *testing.T) {
		fs := mk(t)
		if err := fs.Mkdir("/a/b"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Mkdir("/a/b"); err != nil {
			t.Fatal(err)
		}
	})
	t.Run(name+"/RemoveFile", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("/f", false); err != nil {
			t.Fatal(err)
		}
		if vfs.Exists(fs, "/f") {
			t.Fatal("file still exists after remove")
		}
	})
	t.Run(name+"/RemoveNonEmptyDirNeedsRecursive", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/d/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("/d", false); err == nil {
			t.Fatal("non-recursive remove of non-empty dir succeeded")
		}
		if err := fs.Remove("/d", true); err != nil {
			t.Fatal(err)
		}
		if vfs.Exists(fs, "/d") || vfs.Exists(fs, "/d/f") {
			t.Fatal("dir contents survived recursive remove")
		}
	})
	t.Run(name+"/RemoveRootFails", func(t *testing.T) {
		fs := mk(t)
		if err := fs.Remove("/", true); err == nil {
			t.Fatal("removing root succeeded")
		}
	})
	t.Run(name+"/RenameFile", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/a/f", []byte("data")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename("/a/f", "/a/g"); err != nil {
			t.Fatal(err)
		}
		if vfs.Exists(fs, "/a/f") {
			t.Fatal("old path still exists")
		}
		got, err := vfs.ReadFile(fs, "/a/g")
		if err != nil || string(got) != "data" {
			t.Fatalf("renamed contents = %q err=%v", got, err)
		}
	})
	t.Run(name+"/RenameOntoExistingFails", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/a", []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(fs, "/b", []byte("2")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename("/a", "/b"); !errors.Is(err, vfs.ErrExist) {
			t.Fatalf("want ErrExist, got %v", err)
		}
	})
	t.Run(name+"/RenameIntoOwnSubtreeFails", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/a/f", []byte("data")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename("/a", "/a/b"); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("want ErrInvalid, got %v", err)
		}
		if vfs.Exists(fs, "/a/b") {
			t.Fatal("/a/b exists after the refused rename")
		}
		infos, err := fs.List("/a")
		if err != nil || len(infos) != 1 || infos[0].Path != "/a/f" {
			t.Fatalf("list /a after the refused rename: %+v err=%v", infos, err)
		}
		if got, err := vfs.ReadFile(fs, "/a/f"); err != nil || string(got) != "data" {
			t.Fatalf("read /a/f after the refused rename: %q err=%v", got, err)
		}
	})
	t.Run(name+"/CallerOwnsItsSlices", func(t *testing.T) {
		fs := mk(t)
		in := []byte("stored")
		if err := vfs.WriteFile(fs, "/f", in); err != nil {
			t.Fatal(err)
		}
		in[0] = 'X'
		out, err := vfs.ReadFile(fs, "/f")
		if err != nil || string(out) != "stored" {
			t.Fatalf("after changing the written slice: read %q err=%v", out, err)
		}
		out[0] = 'Y'
		if got, err := vfs.ReadFile(fs, "/f"); err != nil || string(got) != "stored" {
			t.Fatalf("after changing the read slice: read %q err=%v", got, err)
		}
	})
	t.Run(name+"/WalkAndDiskUsage", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/data/one", make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(fs, "/data/sub/two", make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
		du, err := vfs.DiskUsage(fs, "/data")
		if err != nil || du != 42 {
			t.Fatalf("du = %d err=%v, want 42", du, err)
		}
		var seen []string
		if err := vfs.Walk(fs, "/data", func(fi vfs.FileInfo) error {
			seen = append(seen, fi.Path)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 2 || seen[0] != "/data/one" || seen[1] != "/data/sub/two" {
			t.Fatalf("walk saw %v", seen)
		}
	})
	t.Run(name+"/CopyTreeBetweenFilesystems", func(t *testing.T) {
		src := mk(t)
		dst := vfs.NewMemFS()
		if err := vfs.WriteFile(src, "/in/a.txt", []byte("aa")); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(src, "/in/deep/b.txt", []byte("bbb")); err != nil {
			t.Fatal(err)
		}
		n, err := vfs.CopyTree(src, "/in", dst, "/out")
		if err != nil || n != 5 {
			t.Fatalf("copied %d bytes err=%v, want 5", n, err)
		}
		got, err := vfs.ReadFile(dst, "/out/deep/b.txt")
		if err != nil || string(got) != "bbb" {
			t.Fatalf("copied contents = %q err=%v", got, err)
		}
	})
	t.Run(name+"/AppendCreatesThenExtends", func(t *testing.T) {
		fs := mk(t)
		if err := fs.Mkdir("/log"); err != nil {
			t.Fatal(err)
		}
		want := ""
		for _, rec := range []string{"one\n", "", "two\n", "three\n"} {
			w, err := fs.Append("/log/edits")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.WriteString(w, rec); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			want += rec
			got, err := vfs.ReadFile(fs, "/log/edits")
			if err != nil || string(got) != want {
				t.Fatalf("after appending %q: read %q err=%v, want %q", rec, got, err, want)
			}
			fi, err := fs.Stat("/log/edits")
			if err != nil || fi.IsDir || fi.Size != int64(len(want)) {
				t.Fatalf("stat after appending %q: %+v err=%v", rec, fi, err)
			}
		}
		infos, err := fs.List("/log")
		if err != nil || len(infos) != 1 || infos[0].Path != "/log/edits" || infos[0].Size != int64(len(want)) {
			t.Fatalf("list: %+v err=%v", infos, err)
		}
		if _, err := fs.Create("/log/edits"); !errors.Is(err, vfs.ErrExist) {
			t.Fatalf("create over an appended file: want ErrExist, got %v", err)
		}
	})
	t.Run(name+"/AppendCommitsAtClose", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/f", []byte("old")); err != nil {
			t.Fatal(err)
		}
		before, err := fs.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		defer before.Close()
		w, err := fs.Append("/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("+new")); err != nil {
			t.Fatal(err)
		}
		// Written but not closed: nobody sees it yet.
		if got, err := vfs.ReadFile(fs, "/f"); err != nil || string(got) != "old" {
			t.Fatalf("before close: read %q err=%v, want %q", got, err, "old")
		}
		if fi, err := fs.Stat("/f"); err != nil || fi.Size != 3 {
			t.Fatalf("before close: stat %+v err=%v", fi, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := vfs.ReadFile(fs, "/f"); err != nil || string(got) != "old+new" {
			t.Fatalf("after close: read %q err=%v", got, err)
		}
		// The handle opened before the append keeps the length it had.
		if got, err := io.ReadAll(before); err != nil || string(got) != "old" {
			t.Fatalf("reader opened before the append read %q err=%v, want %q", got, err, "old")
		}
	})
	t.Run(name+"/AppendBadPaths", func(t *testing.T) {
		fs := mk(t)
		if err := fs.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Append("/d"); !errors.Is(err, vfs.ErrIsDir) {
			t.Fatalf("append to a directory: want ErrIsDir, got %v", err)
		}
		if _, err := fs.Append("/no/parent.log"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("append without parent: want ErrNotExist, got %v", err)
		}
		// AppendFile, like WriteFile, makes the parents.
		if err := vfs.AppendFile(fs, "/made/by/append", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := vfs.AppendFile(fs, "/made/by/append", []byte("y")); err != nil {
			t.Fatal(err)
		}
		if got, err := vfs.ReadFile(fs, "/made/by/append"); err != nil || string(got) != "xy" {
			t.Fatalf("AppendFile twice: read %q err=%v", got, err)
		}
	})
	t.Run(name+"/EmptyFile", func(t *testing.T) {
		fs := mk(t)
		if err := vfs.WriteFile(fs, "/empty", nil); err != nil {
			t.Fatal(err)
		}
		fi, err := fs.Stat("/empty")
		if err != nil || fi.Size != 0 || fi.IsDir {
			t.Fatalf("stat empty: %+v err=%v", fi, err)
		}
		data, err := vfs.ReadFile(fs, "/empty")
		if err != nil || data == nil || len(data) != 0 {
			t.Fatalf("read empty: %d bytes (nil: %t) err=%v", len(data), data == nil, err)
		}
	})
}
