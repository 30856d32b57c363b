package dirty

import (
	"fmt"
	"io"
	"sort"
)

func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want: maporder
		keys = append(keys, k)
	}
	return keys
}

func collectThenSortAllowed(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func sumAllowed(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func deleteAllowed(m map[string]int) {
	for k := range m {
		if m[k] == 0 {
			delete(m, k)
		}
	}
}

func dump(w io.Writer, m map[string]int) {
	for k, v := range m { // want: maporder
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

func spawnWork(m map[string]int, ch chan int) {
	for _, v := range m { // want: maporder
		ch <- v
	}
}

func spawnGoroutines(m map[string]int) {
	for _, v := range m { // want: maporder
		go func(n int) { _ = n }(v)
	}
}

func sliceRangeAllowed(keys []string, w io.Writer) {
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
}

type eventLog struct{ lines []string }

func (l *eventLog) Append(line string) { l.lines = append(l.lines, line) }

func auditInMapOrder(l *eventLog, m map[string]int) {
	for k := range m { // want: maporder
		l.Append(k)
	}
}

// argmaxTies returns the key of the largest value; among tied values it
// keeps whichever key the map happened to yield first.
func argmaxTies(m map[string]int) string {
	best, bestN := "", -1
	for k, n := range m { // want: maporder
		if n > bestN {
			best, bestN = k, n
		}
	}
	return best
}
