package vfs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/quick"
)

func TestClean(t *testing.T) {
	cases := map[string]string{
		"":              "/",
		"/":             "/",
		"a/b":           "/a/b",
		"/a//b/":        "/a/b",
		"/a/./b":        "/a/b",
		"/a/../b":       "/b",
		"/../..":        "/",
		"/a/b/c/../../": "/a",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSplit(t *testing.T) {
	cases := []struct{ in, dir, name string }{
		{"/", "/", ""},
		{"/a", "/", "a"},
		{"/a/b/c", "/a/b", "c"},
	}
	for _, c := range cases {
		dir, name := Split(c.in)
		if dir != c.dir || name != c.name {
			t.Errorf("Split(%q) = (%q,%q), want (%q,%q)", c.in, dir, name, c.dir, c.name)
		}
	}
}

func TestCleanIdempotent(t *testing.T) {
	if err := quick.Check(func(s string) bool {
		c := Clean(s)
		return Clean(c) == c
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJoinSplitRoundTrip(t *testing.T) {
	if err := quick.Check(func(a, b string) bool {
		// For simple single-segment names, Join then Split recovers them.
		if a == "" || b == "" {
			return true
		}
		for _, r := range a + b {
			if r == '/' || r == '.' || r == 0 {
				return true
			}
		}
		dir, name := Split(Join("/", a, b))
		return dir == Clean("/"+a) && name == b
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemFSRenameDirMovesChildren(t *testing.T) {
	fs := NewMemFS()
	if err := WriteFile(fs, "/old/sub/f", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fs, "/new/sub/f")
	if err != nil || string(got) != "z" {
		t.Fatalf("moved child = %q err=%v", got, err)
	}
	if Exists(fs, "/old/sub/f") {
		t.Fatal("old child still exists")
	}
}

func TestWriterAfterCloseFails(t *testing.T) {
	fs := NewMemFS()
	w, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("write after close: %v", err)
	}
}

// TestMemFSConcurrentUse: writers create and close distinct files and
// append to one shared file while readers stat, list and read. Under
// -race (make race) it checks MemFS's locking, which serial.Runner's
// parallel map workers depend on, that an append extending the
// shared file in place never touches bytes an open reader holds, and
// that writers handed the one spare append buffer never share it: each
// writer's records must all arrive whole.
func TestMemFSConcurrentUse(t *testing.T) {
	const writers, files = 4, 50
	fs := NewMemFS()
	if err := WriteFile(fs, "/log", nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var readers, wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := fs.Stat("/log"); err != nil {
					t.Error(err)
				}
				if _, err := fs.List("/"); err != nil {
					t.Error(err)
				}
				if _, err := ReadFile(fs, "/log"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < files; j++ {
				if err := WriteFile(fs, fmt.Sprintf("/w%d-%d", w, j), []byte("data")); err != nil {
					t.Error(err)
				}
				if err := AppendFile(fs, "/log", []byte{'a' + byte(w), '|'}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	log, err := ReadFile(fs, "/log")
	if err != nil || len(log) != 2*writers*files {
		t.Fatalf("/log = %d bytes, %v; want %d", len(log), err, 2*writers*files)
	}
	for w := 0; w < writers; w++ {
		if n := bytes.Count(log, []byte{'a' + byte(w), '|'}); n != files {
			t.Fatalf("/log holds %d records of writer %d, want %d", n, w, files)
		}
	}
	if list, err := fs.List("/"); err != nil || len(list) != writers*files+1 {
		t.Fatalf("List(/) = %d entries, %v; want %d", len(list), err, writers*files+1)
	}
}

// A MemFS handle knows its length, so ReadFile allocates the file's size
// once rather than growing a buffer to it.
func TestReadFileAllocatesExactSize(t *testing.T) {
	fs := NewMemFS()
	for _, n := range []int{0, 1, 511, 512, 100_000} {
		if err := WriteFile(fs, "/f", make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(fs, "/f")
		if err != nil || len(got) != n {
			t.Fatalf("n=%d: got %d bytes, err=%v", n, len(got), err)
		}
		if cap(got) != n {
			t.Errorf("n=%d: %d-byte buffer", n, cap(got))
		}
		if err := fs.Remove("/f", false); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzCleanMatchesSlow is the differential test of Clean's fast path: for
// any path, returning the argument untouched is allowed only where the
// segment-by-segment normaliser would have rebuilt the same string.
func FuzzCleanMatchesSlow(f *testing.F) {
	for _, p := range []string{
		"", "/", "//", "/a", "/a/", "a", "a/b", "/a/b", "/a//b", "/a/./b", "/a/../b", "/.", "/..", "/...",
		"/a/.", "/a/..", "/.a", "/a./b", "/..a/b..", "/a/b/c/../../", "./a", "../a", "/a\x00b", "/ü/é", "/ /", ".",
		"/serving/usertable/r0003/hfiles/000000", "/t/wal.d/000012",
	} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		if got, want := Clean(p), cleanSlow(p); got != want {
			t.Fatalf("Clean(%q) = %q, cleanSlow gives %q", p, got, want)
		}
	})
}

// TestCleanOfCleanPathDoesNotAllocate: every MemFS method cleans its
// argument, and callers pass paths that already are.
func TestCleanOfCleanPathDoesNotAllocate(t *testing.T) {
	for _, p := range []string{"/", "/a", "/serving/usertable/r0003/hfiles/000000"} {
		p := p
		if n := testing.AllocsPerRun(100, func() { sinkPath = Clean(p) }); n != 0 {
			t.Errorf("Clean(%q) made %v allocations", p, n)
		}
	}
}

var sinkPath string

// On a filesystem whose writers cannot adopt, WriteFileOwned is
// WriteFile: the same file, and a copy the caller's later writes do not
// reach.
func TestWriteFileOwnedCopiesOnMemFS(t *testing.T) {
	fs := NewMemFS()
	for _, data := range [][]byte{nil, []byte("part-r-00000 bytes\n"), make([]byte, 3, 64)} {
		owned := append([]byte(nil), data...)
		if err := WriteFile(fs, "/a/copied", data); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileOwned(fs, "/b/owned", owned); err != nil {
			t.Fatal(err)
		}
		for i := range owned {
			owned[i] = '!'
		}
		a, errA := ReadFile(fs, "/a/copied")
		b, errB := ReadFile(fs, "/b/owned")
		if errA != nil || errB != nil || string(a) != string(b) || string(b) != string(data) {
			t.Fatalf("WriteFile stored %q (%v), WriteFileOwned %q (%v)", a, errA, b, errB)
		}
		for _, p := range []string{"/a/copied", "/b/owned"} {
			if err := fs.Remove(p, false); err != nil {
				t.Fatal(err)
			}
		}
	}
}
