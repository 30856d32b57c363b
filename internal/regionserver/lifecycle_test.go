package regionserver

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

// checkStorage holds the cluster to what must be true between any two
// region lifecycle operations once the janitor has run, as the next
// heartbeat would run it: the servers host exactly the regions META
// lists; every retired directory the janitor keeps is read by some hosted
// table; and the table's directory holds the live regions, the retired
// ones some table still reads, and nothing else.
func checkStorage(t *testing.T, c *Cluster, table string) {
	t.Helper()
	ma := c.Master
	ma.janitor()
	if err := ma.CheckMeta(); err != nil {
		t.Errorf("META: %v", err)
	}
	regions, err := ma.Regions(table)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{} // directories that should exist
	read := map[string]bool{}
	hosted := 0
	for _, s := range ma.servers {
		hosted += len(s.regions)
	}
	for _, r := range regions {
		want[r.Path] = true
		hr := ma.open(r)
		if hr == nil {
			t.Errorf("%s is in META on %s at epoch %d but not hosted so", r.ID, r.Srv, r.Epoch)
			continue
		}
		for _, root := range hr.tbl.References() {
			read[root] = true
			want[root] = true
		}
	}
	if hosted != len(regions) {
		t.Errorf("servers host %d regions, META lists %d", hosted, len(regions))
	}
	for _, dir := range ma.retired {
		if !read[dir] {
			t.Errorf("retired directory %s is kept, but no hosted table reads it", dir)
		}
	}
	infos, err := c.FS.List("/serving/" + table)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range infos {
		if !want[fi.Path] {
			t.Errorf("stray directory %s", fi.Path)
		}
		delete(want, fi.Path)
	}
	for path := range want {
		t.Errorf("directory %s is missing", path)
	}
}

// lifecycleCluster is the fixture of the tests below: two servers on fs,
// automatic splits off, a 1 KiB flush threshold, and one table of two
// regions holding row000..row199 — most of it flushed, the tail of each
// region still in its MemStore.
func lifecycleCluster(t *testing.T, fs vfs.FileSystem) (*Cluster, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	c := newClusterOn(t, eng, fs, 2, Options{
		SplitMaxOps: 1 << 30, SplitMaxBytes: 1 << 30,
		KV: kvstore.Config{FlushThresholdBytes: 1 << 10, CompactTrigger: 3},
	})
	if err := c.Master.CreateTable("t", []string{"row100"}); err != nil {
		t.Fatal(err)
	}
	writeRows(t, c, eng, 0, 200, "v")
	return c, eng
}

func rowKey(i int) string { return fmt.Sprintf("row%03d", i) }

func rowValue(tag string, i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%s%03d.", tag, i)), 8)
}

// writeRows puts rows [from, to) with values derived from tag.
func writeRows(t *testing.T, c *Cluster, eng *sim.Engine, from, to int, tag string) {
	t.Helper()
	cl := c.NewClient()
	for i := from; i < to; i++ {
		if _, err := cl.Put(eng.Now(), "t", rowKey(i), rowValue(tag, i)); err != nil {
			t.Fatalf("put %s: %v", rowKey(i), err)
		}
	}
}

// checkRows reads rows [from, to) back through a fresh client.
func checkRows(t *testing.T, c *Cluster, eng *sim.Engine, from, to int, tag string) {
	t.Helper()
	cl := c.NewClient()
	for i := from; i < to; i++ {
		got, _, err := cl.Get(eng.Now(), "t", rowKey(i))
		if err != nil || !bytes.Equal(got, rowValue(tag, i)) {
			t.Fatalf("get %s = %q, %v; want %q", rowKey(i), got, err, rowValue(tag, i))
		}
	}
}

func regionIDs(t *testing.T, c *Cluster) string {
	t.Helper()
	regions, err := c.Master.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range regions {
		ids = append(ids, r.ID)
	}
	return strings.Join(ids, ",")
}

// TestFailedSplitOrMergeLeavesNothing stands a storage fault on every
// mutating filesystem call of a split and of a merge in turn. An
// operation that fails has changed nothing: the parents serve every row,
// no daughter is hosted, no directory or marker is left over, META tiles
// the key space, and asking again succeeds. (Copying a daughter's rows
// used to register it with its server and create its directory before
// the second copy could fail.) A fault that lands after the commit — on
// the removal of a directory nobody reads — does not fail the operation;
// the removal is made good by the next one.
func TestFailedSplitOrMergeLeavesNothing(t *testing.T) {
	split := func(c *Cluster, region int) func() error {
		return func() error {
			regions, _ := c.Master.Regions("t")
			info := regions[region]
			srv := c.Master.byName[info.Srv]
			return c.Master.splitRegion(info, srv, srv.regions[info.ID])
		}
	}
	merge := func(c *Cluster) func() error {
		return func() error {
			c.Master.ResetLoadWindows()
			merged, err := c.Master.MergeAdjacent("t", 1<<30)
			if err == nil && !merged {
				err = fmt.Errorf("nothing to merge")
			}
			return err
		}
	}
	cases := []struct {
		name string
		// prepare runs before the fault is armed; op is swept.
		prepare func(t *testing.T, c *Cluster)
		op      func(c *Cluster) func() error
	}{
		{"split", nil, func(c *Cluster) func() error { return split(c, 0) }},
		// A daughter nobody wrote to holds markers only, so retiring it
		// removes its directory at once: the one post-commit call.
		{"split of a daughter", func(t *testing.T, c *Cluster) {
			if err := split(c, 0)(); err != nil {
				t.Fatal(err)
			}
		}, func(c *Cluster) func() error { return split(c, 0) }},
		{"merge", nil, merge},
		{"merge of daughters", func(t *testing.T, c *Cluster) {
			if err := split(c, 0)(); err != nil {
				t.Fatal(err)
			}
		}, merge},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// before and markers are the regions and the reference markers
			// as the swept operation finds them.
			var before, markers string
			run := func(k int) (ffs *vfstest.FailFS, c *Cluster, eng *sim.Engine, err error) {
				ffs = &vfstest.FailFS{FileSystem: vfs.NewMemFS()}
				c, eng = lifecycleCluster(t, ffs)
				if tc.prepare != nil {
					tc.prepare(t, c)
				}
				checkStorage(t, c, "t")
				before, markers = regionIDs(t, c), markersUnder(t, c.FS, "/serving")
				calls := ffs.Calls
				if k > 0 {
					ffs.FailAt = calls + k
				}
				err = tc.op(c)()
				ffs.Calls -= calls
				return
			}
			dry, _, _, err := run(0)
			if err != nil {
				t.Fatal(err)
			}
			if dry.Calls < 6 {
				t.Fatalf("the operation made %d mutating calls", dry.Calls)
			}
			failed, survived := 0, 0
			for k := 1; k <= dry.Calls; k++ {
				ffs, c, eng, err := run(k)
				label := fmt.Sprintf("fault %d of %d (%s)", k, dry.Calls, ffs.Failed)
				if ffs.Failed == "" {
					t.Fatalf("%s never fired", label)
				}
				if err != nil {
					failed++
					if got := regionIDs(t, c); got != before {
						t.Fatalf("%s: failed with %v and left regions %s, were %s", label, err, got, before)
					}
					checkRows(t, c, eng, 0, 200, "v")
					checkStorage(t, c, "t")
					if got := markersUnder(t, c.FS, "/serving"); got != markers {
						t.Errorf("%s: markers were\n%s\nand are\n%s", label, markers, got)
					}
					if t.Failed() {
						t.Fatalf("%s: the failed operation left something behind", label)
					}
					// Asking again succeeds.
					if err := tc.op(c)(); err != nil {
						t.Fatalf("%s: the retry failed: %v", label, err)
					}
				} else {
					survived++
				}
				if got := regionIDs(t, c); got == before {
					t.Fatalf("%s: regions still %s", label, got)
				}
				checkRows(t, c, eng, 0, 200, "v")
				// Another operation elsewhere makes good any removal the
				// fault prevented.
				regions, _ := c.Master.Regions("t")
				if err := split(c, len(regions)-1)(); err != nil {
					t.Fatalf("%s: follow-up split: %v", label, err)
				}
				checkRows(t, c, eng, 0, 200, "v")
				checkStorage(t, c, "t")
				if t.Failed() {
					t.Fatalf("%s: storage is not clean after the follow-up", label)
				}
			}
			t.Logf("%d mutating calls: %d faults failed the operation, %d landed after its commit", dry.Calls, failed, survived)
			if failed == 0 {
				t.Fatal("no fault failed the operation")
			}
		})
	}
}

// markersUnder lists the reference markers under root.
func markersUnder(t *testing.T, fs vfs.FileSystem, root string) string {
	t.Helper()
	var b strings.Builder
	err := vfs.Walk(fs, root, func(fi vfs.FileInfo) error {
		if strings.HasSuffix(fi.Path, ".ref") {
			fmt.Fprintln(&b, fi.Path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRetiredParentOutlivesItsReferences follows one parent directory
// from its split to its removal: it stays while either daughter reads it
// — through the other daughter's compaction, a crash and reassignment of
// the one still holding markers, and that daughter's own split, whose
// granddaughters point straight at the parent's files — and the first
// heartbeat after the last reference is gone removes it. Readers are
// recounted from the hosted tables at each step, as the janitor recounts
// them. A daughter that was never written to holds markers only, so its
// own directory goes the moment it is split.
func TestRetiredParentOutlivesItsReferences(t *testing.T) {
	c, eng := lifecycleCluster(t, vfs.NewMemFS())
	ma := c.Master
	tags := make([]string, 200)
	for i := range tags {
		tags[i] = "v"
	}
	verify := func(step string) {
		t.Helper()
		cl := c.NewClient()
		for i, tag := range tags {
			got, _, err := cl.Get(eng.Now(), "t", rowKey(i))
			if err != nil || !bytes.Equal(got, rowValue(tag, i)) {
				t.Fatalf("%s: get %s = %q, %v; want %q", step, rowKey(i), got, err, rowValue(tag, i))
			}
		}
		checkStorage(t, c, "t")
		if t.Failed() {
			t.Fatalf("%s: storage check failed", step)
		}
	}
	region := func(key string) (RegionInfo, *hostedRegion) {
		t.Helper()
		regions, _ := ma.Regions("t")
		i := locateIndex(regions, key)
		if i < 0 {
			t.Fatalf("no region for %s", key)
		}
		info := regions[i]
		hr := ma.open(info)
		if hr == nil {
			t.Fatalf("%s, which holds %s, is not open on %s at epoch %d", info.ID, key, info.Srv, info.Epoch)
		}
		return info, hr
	}
	// readers recounts the hosted tables that read dir.
	readers := func(dir string) int {
		n := 0
		for _, s := range ma.servers {
			for _, hr := range s.regions {
				if slices.Contains(hr.tbl.References(), dir) {
					n++
				}
			}
		}
		return n
	}
	splitAt := func(key string) {
		t.Helper()
		info, hr := region(key)
		if err := ma.splitRegion(info, ma.byName[info.Srv], hr); err != nil {
			t.Fatal(err)
		}
	}
	// rewriteUntilCompacted overwrites the region's rows until a flush
	// tips it into a compaction.
	rewriteUntilCompacted := func(key, tag string) {
		t.Helper()
		info, hr := region(key)
		var lo, hi int
		fmt.Sscanf(info.Start, "row%d", &lo)
		if hi = 200; info.End != "" {
			fmt.Sscanf(info.End, "row%d", &hi)
		}
		for round := 0; hr.tbl.Compactions == 0; round++ {
			if round == 20 {
				t.Fatalf("%s never compacted", info.ID)
			}
			writeRows(t, c, eng, lo, hi, tag)
			for i := lo; i < hi; i++ {
				tags[i] = tag
			}
		}
		if len(hr.tbl.References()) != 0 {
			t.Fatalf("%s compacted and still holds references %v", info.ID, hr.tbl.References())
		}
	}
	exists := func(path string) bool { return vfs.Exists(c.FS, path) }

	parent, _ := region("row000")
	splitAt("row000")
	low, _ := region("row000")
	high, _ := region("row099")
	verify("after the split")
	if !exists(parent.Path) || readers(parent.Path) != 2 {
		t.Fatalf("parent %s: exists %v, %d readers; want it kept for 2", parent.Path, exists(parent.Path), readers(parent.Path))
	}

	rewriteUntilCompacted("row000", "w")
	verify("after the low daughter compacted")
	if !exists(parent.Path) || readers(parent.Path) != 1 {
		t.Fatalf("parent %s: exists %v, %d readers; want it kept for the high daughter", parent.Path, exists(parent.Path), readers(parent.Path))
	}

	// The high daughter's server dies; its new owner opens it from the
	// markers, which is the one read of the parent's files after the split.
	victim := ma.byName[high.Srv]
	if !c.CrashServerOn(victim.Node()) {
		t.Fatal("crash did not land")
	}
	eng.Advance(5 * time.Second)
	if moved, hr := region("row099"); moved.ID != high.ID || moved.Srv == high.Srv || len(hr.refs) == 0 {
		t.Fatalf("high daughter after the crash: %+v, holds references: %v", moved, hr.refs)
	}
	c.RestartServerOn(victim.Node())
	eng.Advance(time.Second)
	verify("after the high daughter moved")
	if !exists(parent.Path) {
		t.Fatalf("parent %s removed under a reassigned daughter", parent.Path)
	}

	splitAt("row099")
	verify("after the high daughter split")
	if exists(high.Path) {
		t.Fatalf("%s held markers only and outlived its split", high.Path)
	}
	if !exists(parent.Path) || readers(parent.Path) != 2 {
		t.Fatalf("parent %s: exists %v, %d readers; want it kept for 2 granddaughters", parent.Path, exists(parent.Path), readers(parent.Path))
	}

	g1, _ := region("row050")
	g2, _ := region("row099")
	if g1.ID == g2.ID || g1.ID == low.ID {
		t.Fatalf("granddaughters %s and %s, low daughter %s", g1.ID, g2.ID, low.ID)
	}
	rewriteUntilCompacted("row099", "x")
	verify("after one granddaughter compacted")
	if !exists(parent.Path) {
		t.Fatalf("parent %s removed while %s still reads it", parent.Path, g1.ID)
	}
	rewriteUntilCompacted("row050", "y")
	// The next heartbeat's janitor finds no reader left.
	eng.Advance(heartbeatInterval)
	if exists(parent.Path) || readers(parent.Path) != 0 || len(ma.retired) != 0 {
		t.Fatalf("parent %s: exists %v, %d readers; retired %v; want all gone", parent.Path, exists(parent.Path), readers(parent.Path), ma.retired)
	}
	verify("after both granddaughters compacted")
}
