package regionserver

import (
	"strings"
	"testing"
	"time"
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

// TestStatusPageAlignsLongNames: a server name and a region range longer
// than any fixed column width still leave the next cell under its header.
func TestStatusPageAlignsLongNames(t *testing.T) {
	const key = "user-with-a-rather-long-row-key-0042"
	c, _ := newTestCluster(t, 100, Options{})
	if err := c.Master.CreateTable("usertable", []string{key}); err != nil {
		t.Fatal(err)
	}
	page := c.StatusPage()
	// Each case names its header line by a header only that table has.
	for _, tc := range []struct{ table, header, row, cell string }{
		{"regions", "state", "rs100", "live"},
		{"epoch", "state", key, "ops="},
	} {
		if h, v := column(page, tc.table, tc.header), column(page, tc.row, tc.cell); h < 0 || h != v {
			t.Errorf("%s header at column %d, %q at %d:\n%s", tc.header, h, tc.cell, v, page)
		}
	}
}

// TestStatusPageSaysNotOpen: a server restarted inside the heartbeat
// expiry is up but hosts nothing, so until the next heartbeat reassigns
// its regions their rows say "not open" — not "unassigned", which is a
// row with no server at all.
func TestStatusPageSaysNotOpen(t *testing.T) {
	c, eng := newTestCluster(t, 2, Options{})
	if err := c.Master.CreateTable("t", []string{"m"}); err != nil {
		t.Fatal(err)
	}
	rs1 := c.Master.byName["rs1"]
	rs1.Crash()
	eng.Advance(time.Second)
	rs1.Restart()
	page := c.StatusPage()
	rows := 0
	for _, line := range strings.Split(page, "\n") {
		if f := strings.Fields(line); len(f) > 4 && strings.HasPrefix(f[0], "r0") && f[4] == "rs1" {
			rows++
			if !strings.HasSuffix(line, " not open") {
				t.Errorf("row of a region rs1 does not host: %q", line)
			}
		}
	}
	if rows == 0 {
		t.Fatalf("no region row names rs1:\n%s", page)
	}
}
