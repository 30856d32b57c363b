package hdfs_test

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/vfs"
)

func TestFsckWithDetail(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{BlockSize: 1024, Replication: 2})
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/data/a", make([]byte, 2500)); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c, "/data/b", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		path        string
		opts        hdfs.FsckOpts
		wantErr     bool
		wantDetails bool
		wantHosts   bool
	}{
		{name: "plain", path: "/data", opts: hdfs.FsckOpts{}},
		{name: "blocks", path: "/data", opts: hdfs.FsckOpts{Blocks: true}, wantDetails: true},
		{name: "locations implies blocks", path: "/data", opts: hdfs.FsckOpts{Locations: true}, wantDetails: true, wantHosts: true},
		{name: "single file", path: "/data/b", opts: hdfs.FsckOpts{Locations: true}, wantDetails: true, wantHosts: true},
		{name: "missing path", path: "/nope", opts: hdfs.FsckOpts{Blocks: true}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := c.FsckWith(tc.path, tc.opts)
			if tc.wantErr {
				if !errors.Is(err, vfs.ErrNotExist) {
					t.Fatalf("err = %v, want not-exist", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Files) == 0 {
				t.Fatal("no files in report")
			}
			for _, f := range rep.Files {
				if !tc.wantDetails {
					if len(f.BlockDetails) != 0 {
						t.Fatalf("%s: unexpected block details", f.Path)
					}
					continue
				}
				if len(f.BlockDetails) != f.Blocks {
					t.Fatalf("%s: %d details for %d blocks", f.Path, len(f.BlockDetails), f.Blocks)
				}
				for _, bd := range f.BlockDetails {
					if tc.wantHosts {
						if len(bd.Hosts) != 2 {
							t.Fatalf("%s %v: hosts = %v, want 2", f.Path, bd.Block, bd.Hosts)
						}
						if !sort.StringsAreSorted(bd.Hosts) {
							t.Fatalf("%s %v: hosts not sorted: %v", f.Path, bd.Block, bd.Hosts)
						}
					} else if len(bd.Hosts) != 0 {
						t.Fatalf("%s %v: hosts without -locations: %v", f.Path, bd.Block, bd.Hosts)
					}
				}
			}
			out := rep.String()
			if tc.wantDetails && !strings.Contains(out, "0. blk_") {
				t.Fatalf("detail rows missing from render:\n%s", out)
			}
			if tc.wantHosts && !strings.Contains(out, "[node000") {
				t.Fatalf("host lists missing from render:\n%s", out)
			}
			if !tc.wantDetails && strings.Contains(out, "0. blk_") {
				t.Fatalf("detail rows rendered without -blocks:\n%s", out)
			}
		})
	}
}

func TestAuditLogRecordsClientOps(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{BlockSize: 1024})
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/a", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.ReadFile(c, "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("/ghost"); err == nil {
		t.Fatal("want open error")
	}
	if err := c.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/a", "/dir/a"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReplication("/dir/a", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("/dir/a", false); err != nil {
		t.Fatal(err)
	}

	byType := map[string][]history.Event{}
	for _, e := range d.AuditLog().Events() {
		byType[e.Type] = append(byType[e.Type], e)
	}
	for _, typ := range []string{
		history.EvAuditCreate, history.EvAuditOpen, history.EvAuditMkdir,
		history.EvAuditRename, history.EvAuditSetrep, history.EvAuditDelete,
		history.EvAuditBlockAllocate, history.EvAuditSafemodeExit,
	} {
		if len(byType[typ]) == 0 {
			t.Fatalf("no %s event in audit log", typ)
		}
	}
	create := byType[history.EvAuditCreate][0]
	if create.Attrs.Get("user") != hdfs.DefaultUser || create.Attrs.Get("src") != "/a" || create.Attrs.Get("result") != "ok" {
		t.Fatalf("create attrs: %v", create.Attrs)
	}
	var sawDenied bool
	for _, e := range byType[history.EvAuditOpen] {
		if e.Attrs.Get("src") == "/ghost" && e.Attrs.Get("result") == "error" {
			sawDenied = true
		}
	}
	if !sawDenied {
		t.Fatal("failed open not audited as result=error")
	}
	alloc := byType[history.EvAuditBlockAllocate][0]
	if alloc.Attrs.Get("user") != history.PrincipalNameNode || alloc.Attrs.Get("src") != "/a" || alloc.Attrs.Get("targets") == "" {
		t.Fatalf("block_allocate attrs: %v", alloc.Attrs)
	}
	// The audit counter tracks the log.
	if got := d.Obs.Counter(history.MetricAuditEvents).Value(); got != int64(d.AuditLog().Len()) {
		t.Fatalf("counter %d != log length %d", got, d.AuditLog().Len())
	}
}
