package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIFuzzesEveryTarget keeps `make ci` from skipping a fuzz target in
// silence: every `func FuzzX(f *testing.F)` under internal/ must have a
// `-fuzz FuzzX ... ./internal/<pkg>/` line in the Makefile's ci recipe.
func TestCIFuzzesEveryTarget(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	fuzzLine := regexp.MustCompile(`-fuzz (\w+) .*(\./internal/\S+/)`)
	inCI, ran := false, map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "\t") {
			inCI = strings.HasPrefix(line, "ci:")
			continue
		}
		if m := fuzzLine.FindStringSubmatch(line); inCI && m != nil {
			ran[m[1]+" "+m[2]] = true
		}
	}

	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	targets := 0
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path)) + "/"
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			targets++
			if !ran[m[1]+" "+pkg] {
				t.Errorf("%s: %s has no `-fuzz %s ... %s` line in the Makefile's ci recipe", path, m[1], m[1], pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if targets == 0 {
		t.Fatal("found no fuzz targets under internal/")
	}
}
