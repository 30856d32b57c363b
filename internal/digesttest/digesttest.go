// Package digesttest is the test helper behind the replay-digest files
// (testdata/*.sha256): a refactor records the sha256 of a run's artifacts
// before the edit and asserts them unchanged after it.
package digesttest

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Read parses a sha256sum-format file into name -> hex digest.
func Read(t testing.TB, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[f[1]] = f[0]
	}
	return out
}

// Assert hashes parts in order and compares the result with the digest
// pinned under name. A mismatch prints the line the digest file would
// need, in its own format.
func Assert(t testing.TB, pinned map[string]string, name string, parts ...[]byte) {
	t.Helper()
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinned[name] {
		t.Errorf("replay digest moved:\n%s  %s\npinned %q", got, name, pinned[name])
	}
}
