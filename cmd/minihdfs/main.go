// Command minihdfs runs `hadoop fs`-style commands against an in-process
// simulated HDFS cluster, optionally staging a host directory first and
// injecting a DataNode failure mid-session — the second assignment's
// "observe how HDFS transforms, stores, replicates, and abstracts the
// actual data" exercise in one binary.
//
// Usage:
//
//	minihdfs [-nodes 8] [-racks 1] [-block 2097152] [-repl 3]
//	         [-stage hostdir=/dfs/path] [-kill-node 2]
//	         -- <script of fs commands on stdin, or -c "cmds">
//
// Example:
//
//	echo '-ls /
//	-put /data/corpus.txt /corpus.txt
//	-locations /corpus.txt
//	-fsck /' | minihdfs -stage ./testdata=/data
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/vfs"
	"repro/internal/webui"
)

func main() {
	nodes := flag.Int("nodes", 8, "cluster size")
	racks := flag.Int("racks", 1, "rack count")
	block := flag.Int64("block", 2<<20, "HDFS block size in bytes")
	repl := flag.Int("repl", 3, "default replication factor")
	seed := flag.Int64("seed", 1, "deterministic seed")
	stage := flag.String("stage", "", "hostdir=/dfs/path to pre-stage")
	killNode := flag.Int("kill-node", -1, "kill this DataNode after staging")
	script := flag.String("c", "", "commands to run (newline separated); default reads stdin")
	topology := flag.Bool("topology", false, "print the component topology (Figure 2) after the session")
	serve := flag.String("serve", "", "after the session, serve the web UI on this address (e.g. :50070)")
	metrics := flag.String("metrics", "", "write the obs metrics/spans snapshot to this JSON file after the session")
	flag.Parse()

	c, err := core.New(core.Options{
		Nodes: *nodes,
		Racks: *racks,
		Seed:  *seed,
		HDFS: hdfs.Config{
			BlockSize:         *block,
			Replication:       *repl,
			HeartbeatInterval: time.Second,
			HeartbeatExpiry:   10 * time.Second,
		},
	})
	if err != nil {
		fatal(err)
	}
	local, err := vfs.NewOsFS("/")
	if err != nil {
		fatal(err)
	}
	sh := c.Shell(local, os.Stdout)
	sh.Local = local

	if *stage != "" {
		parts := strings.SplitN(*stage, "=", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("-stage wants hostdir=/dfs/path, got %q", *stage))
		}
		hostAbs, err := absPath(parts[0])
		if err != nil {
			fatal(err)
		}
		n, err := vfs.CopyTree(local, hostAbs, c.FS(), parts[1])
		if err != nil {
			fatal(fmt.Errorf("staging: %w", err))
		}
		fmt.Printf("staged %d bytes from %s to %s\n", n, parts[0], parts[1])
	}
	if *killNode >= 0 {
		dn := c.DFS.DataNode(cluster.NodeID(*killNode))
		if dn == nil {
			fatal(fmt.Errorf("no DataNode %d", *killNode))
		}
		dn.Kill()
		c.Engine.Advance(15 * time.Second)
		fmt.Printf("killed DataNode on node %d; heartbeats expired\n", *killNode)
	}

	text := *script
	if text == "" {
		data, err := readAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		text = data
	}
	if strings.TrimSpace(text) != "" {
		if err := sh.RunScript(text); err != nil {
			fatal(err)
		}
	}
	if *topology {
		fmt.Println(c.RenderTopology())
	}
	if *metrics != "" {
		data, err := c.Obs.SnapshotJSON()
		if err == nil {
			err = os.WriteFile(*metrics, data, 0o644)
		}
		if err != nil {
			fatal(fmt.Errorf("writing metrics: %w", err))
		}
		fmt.Printf("metrics snapshot written to %s\n", *metrics)
	}
	if *serve != "" {
		fmt.Printf("serving web UI on http://%s (/ lists every page)\n", *serve)
		if err := http.ListenAndServe(*serve, webui.Handler(c)); err != nil {
			fatal(err)
		}
	}
}

func absPath(p string) (string, error) {
	if strings.HasPrefix(p, "/") {
		return p, nil
	}
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	return vfs.Join(wd, p), nil
}

func readAll(f *os.File) (string, error) {
	var b strings.Builder
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String(), sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minihdfs:", err)
	os.Exit(1)
}
