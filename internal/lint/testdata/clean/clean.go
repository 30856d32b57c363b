// Package clean is a lint fixture the suite must pass with zero
// findings: deterministic, hygienic code written the way the repo's
// sim-facing packages are supposed to be written.
package clean

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Durations and virtual instants are plain time.Duration values; no
// wall-clock reads anywhere.
const heartbeat = 3 * time.Second

// seededDraw takes an explicit seed, the only sanctioned source of
// randomness outside internal/sim.
func seededDraw(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(100)
}

// sortedKeys is the canonical deterministic map walk: collect, sort,
// then iterate.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// render emits map entries in key order, returning the string rather
// than printing it.
func render(m map[string]int) string {
	var b strings.Builder
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, "%s=%d\n", k, m[k])
	}
	return b.String()
}

// tally only does commutative work in its map range.
func tally(m map[string]int) (total int) {
	for _, v := range m {
		total += v
	}
	return total
}

type store struct {
	mu sync.Mutex
	v  map[string]int
}

func (s *store) Get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v[k]
}

func (s *store) Put(k string, n int) {
	s.mu.Lock()
	s.v[k] = n
	s.mu.Unlock()
}

// failable returns its error instead of printing or exiting.
func failable(ok bool) error {
	if !ok {
		return fmt.Errorf("clean: condition not met")
	}
	return nil
}

type eventLog struct{ lines []string }

func (l *eventLog) Append(line string) { l.lines = append(l.lines, line) }

// audit emits one event per map entry in key order: the canonical shape
// for event-log writes driven by a map.
func audit(l *eventLog, m map[string]int) {
	for _, k := range sortedKeys(m) {
		l.Append(k)
	}
}

// contains sets a flag every match sets the same way: no write depends on
// which entry came last.
func contains(m map[string]int, want int) bool {
	found := false
	for _, v := range m {
		if v == want {
			found = true
		}
	}
	return found
}

// total folds the values with a commutative operator.
func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// copyMap writes each entry under its own key.
func copyMap(m map[string]int) map[string]int {
	m2 := make(map[string]int, len(m))
	for k, v := range m {
		m2[k] = v
	}
	return m2
}

// argmax collects and sorts the keys first, so a tie goes to the first
// key in order on every run.
func argmax(m map[string]int) string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := ""
	for _, k := range keys {
		if best == "" || m[k] > m[best] {
			best = k
		}
	}
	return best
}
