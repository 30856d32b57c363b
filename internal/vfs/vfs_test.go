package vfs

import (
	"io"
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

func TestMemFSTotalBytes(t *testing.T) {
	fs := NewMemFS()
	if err := WriteFile(fs, "/a", make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(fs, "/b", make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if fs.TotalBytes() != 12 {
		t.Fatalf("TotalBytes = %d", fs.TotalBytes())
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
