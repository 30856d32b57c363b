package yarn_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/yarn"
)

// column is the byte offset of cell in the first line of page that holds
// both row and cell, or -1 if no line does.
func column(page, row, cell string) int {
	for _, line := range strings.Split(page, "\n") {
		if strings.Contains(line, row) {
			if i := strings.Index(line, cell); i >= 0 {
				return i
			}
		}
	}
	return -1
}

// TestStatusPageAlignsLongNames: a queue path and an application name
// longer than any fixed column width still leave the next cell under its
// header.
func TestStatusPageAlignsLongNames(t *testing.T) {
	const queue, app = "graduate-research-cluster", "wordcount-combiner-over-the-full-corpus"
	_, rm := newRM(t, 4, &yarn.QueueConfig{
		Name:     "root",
		Children: []yarn.QueueConfig{{Name: queue, Capacity: 0.5}, {Name: "default", Capacity: 0.5}},
	})
	spec := uniformApp(app, "alice", 4, time.Minute)
	spec.Queue = queue
	if _, err := rm.Submit(spec); err != nil {
		t.Fatal(err)
	}
	page := rm.StatusPage()
	// Each case names its header line by a header only that table has.
	for _, c := range []struct{ table, header, row, cell string }{
		{"guarantee", "guarantee", "root." + queue, "32 vc"},
		{"preempted", "queue", app, "root." + queue},
	} {
		if h, v := column(page, c.table, c.header), column(page, c.row, c.cell); h < 0 || h != v {
			t.Errorf("%s header at column %d, %q at %d:\n%s", c.header, h, c.cell, v, page)
		}
	}
}
