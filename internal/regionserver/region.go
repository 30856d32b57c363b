package regionserver

import (
	"fmt"
	"sort"
)

// RegionInfo is one row of META: a contiguous row-key range of a table,
// the server currently hosting it, and the epoch fencing stale clients.
type RegionInfo struct {
	ID    string // "r0007" — unique per master, never reused
	Table string
	Start string // inclusive; "" = from the beginning
	End   string // exclusive; "" = to the end
	Srv   string // hosting server name
	Epoch int    // bumped on every assign/move; stale epochs get ErrNotServing
	Path  string // vfs root of the region's kvstore Table
}

// Contains reports whether the row key falls in the region's range.
func (r RegionInfo) Contains(key string) bool {
	return r.Start <= key && (r.End == "" || key < r.End)
}

// RangeString renders the range for logs and status pages.
func (r RegionInfo) RangeString() string {
	start, end := r.Start, r.End
	if start == "" {
		start = "-inf"
	}
	if end == "" {
		end = "+inf"
	}
	return fmt.Sprintf("[%s, %s)", start, end)
}

// regionPath is the vfs root for a region's kvstore Table.
func regionPath(table, regionID string) string {
	return "/serving/" + table + "/" + regionID
}

// locateIndex finds the region covering key in a Start-sorted region
// list and returns its index, -1 when no region covers key.
func locateIndex(regions []RegionInfo, key string) int {
	// First region with Start > key, minus one.
	lo, hi := 0, len(regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if regions[mid].Start > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 || !regions[lo-1].Contains(key) {
		return -1
	}
	return lo - 1
}

// sortRegions orders a region list by range start (the META invariant).
func sortRegions(regions []RegionInfo) {
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].Start != regions[j].Start {
			return regions[i].Start < regions[j].Start
		}
		return regions[i].ID < regions[j].ID
	})
}

// checkContiguous verifies a sorted region list tiles the whole key
// space: starts at "", each End meets the next Start, ends open. Used by
// tests and the fsck-style consistency check on the status page.
func checkContiguous(regions []RegionInfo) error {
	if len(regions) == 0 {
		return fmt.Errorf("no regions")
	}
	if regions[0].Start != "" {
		return fmt.Errorf("first region %s starts at %q, not -inf", regions[0].ID, regions[0].Start)
	}
	for i := 0; i < len(regions)-1; i++ {
		if regions[i].End != regions[i+1].Start {
			return fmt.Errorf("gap: %s ends at %q, %s starts at %q",
				regions[i].ID, regions[i].End, regions[i+1].ID, regions[i+1].Start)
		}
	}
	if last := regions[len(regions)-1]; last.End != "" {
		return fmt.Errorf("last region %s ends at %q, not +inf", last.ID, last.End)
	}
	return nil
}
