// HBase lecture demo (added to the module in Fall 2013 "to provide a more
// comprehensive view of the Hadoop ecosystem"): a sorted, versioned
// key-value table living on HDFS. Shows the write-ahead log, MemStore
// flushes to sorted store files, range scans, crash recovery, and that
// the table inherits HDFS's fault tolerance when a DataNode dies.
package main

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

func main() {
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(4, 1))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{
		Seed:   5,
		Config: hdfs.Config{Replication: 3, HeartbeatInterval: time.Second, HeartbeatExpiry: 5 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}
	client := dfs.Client(hdfs.GatewayNode)

	tbl, err := kvstore.Open(client, "/hbase/courses", kvstore.Config{FlushThresholdBytes: 2 << 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("created table /hbase/courses on HDFS")

	// Row keys sort lexicographically, like HBase.
	rows := map[string]string{
		"cpsc2310:title": "Intro to Computer Organization",
		"cpsc3620:title": "Distributed and Cluster Computing",
		"cpsc3620:tool":  "minihadoop",
		"cpsc4240:title": "System Administration",
	}
	// In key order, not map order: the WAL's sequence numbers are part of
	// what this lab shows, and they should read the same on every run.
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := tbl.Put(k, []byte(rows[k])); err != nil {
			log.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d cells; %d store file(s) flushed to HDFS\n", len(rows), tbl.StoreFileCount())

	// Range scan: everything about cpsc3620.
	kvs, err := tbl.Scan("cpsc3620:", "cpsc3620;")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("scan cpsc3620:* ->")
	for _, kv := range kvs {
		fmt.Printf("  %-16s %s\n", kv.Key, kv.Value)
	}

	// Update + delete, then crash-recover from the WAL.
	if err := tbl.Put("cpsc3620:tool", []byte("minihadoop v2")); err != nil {
		log.Fatal(err)
	}
	if err := tbl.Delete("cpsc4240:title"); err != nil {
		log.Fatal(err)
	}
	tbl2, err := kvstore.Open(client, "/hbase/courses", kvstore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	v, err := tbl2.Get("cpsc3620:tool")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after reopen (WAL replay): cpsc3620:tool = %s\n", v)
	if _, err := tbl2.Get("cpsc4240:title"); errors.Is(err, kvstore.ErrNotFound) {
		fmt.Println("after reopen: cpsc4240:title is deleted (tombstone replayed)")
	}

	// A DataNode dies; the table's HDFS files survive via replication.
	dfs.DataNode(1).Kill()
	eng.Advance(30 * time.Second)
	v, err = tbl2.Get("cpsc3620:title")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after DataNode loss: cpsc3620:title = %s (served from surviving replicas)\n", v)
	rep, _ := dfs.Fsck()
	fmt.Printf("fsck: %s, %d under-replicated block(s) being repaired\n", rep.Status(), rep.UnderReplicated)
}
