package jobs_test

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/serial"
	"repro/internal/vfs"
)

// Counters that legitimately exist in only one runtime. Everything else
// must appear in both, so a student comparing a standalone run against a
// cluster run of the same job sees the same vocabulary.
var clusterOnlyCounters = map[string]bool{
	mapreduce.CtrHDFSBytesRead:      true, // no HDFS in standalone mode
	mapreduce.CtrHDFSBytesWritten:   true,
	mapreduce.CtrDataLocalMaps:      true, // no locality without a topology
	mapreduce.CtrRackLocalMaps:      true,
	mapreduce.CtrRemoteMaps:         true,
	mapreduce.CtrFailedMaps:         true, // no fault tolerance standalone
	mapreduce.CtrFailedReduces:      true,
	mapreduce.CtrSpeculativeLaunch:  true,
	mapreduce.CtrSpeculativeWon:     true,
	mapreduce.CtrTaskRetries:        true,
	mapreduce.CtrKilledTaskAttempts: true,
}

// Of those, the ones a healthy no-fault run emits unconditionally — used
// to keep the allowlist honest without requiring injected failures here.
var clusterAlwaysCounters = []string{
	mapreduce.CtrHDFSBytesRead,
	mapreduce.CtrHDFSBytesWritten,
	mapreduce.CtrDataLocalMaps,
}

var serialOnlyCounters = map[string]bool{
	mapreduce.CtrFileBytesRead:    true, // local-filesystem traffic
	mapreduce.CtrFileBytesWritten: true,
}

// TestCounterParitySerialVsCluster runs the same wordcount standalone and
// on the cluster and checks the two counter sets agree modulo the
// runtime-specific allowlists above. This is what makes the counters
// section of a job report teachable: the names mean the same thing in
// assignment 1 (serial) and assignment 3 (cluster).
func TestCounterParitySerialVsCluster(t *testing.T) {
	job := jobs.WordCount("/in", "/out", true)

	local := vfs.NewMemFS()
	if _, _, err := datagen.Text(local, "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 77}); err != nil {
		t.Fatal(err)
	}
	srep, err := (&serial.Runner{FS: local}).Run(job)
	if err != nil {
		t.Fatal(err)
	}

	c, err := core.New(core.Options{Nodes: 6, Seed: 5, HDFS: hdfs.Config{BlockSize: 32 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 77}); err != nil {
		t.Fatal(err)
	}
	crep, err := c.Run(jobs.WordCount("/in", "/out", true))
	if err != nil {
		t.Fatal(err)
	}

	serialNames := map[string]bool{}
	for _, n := range srep.Names() {
		serialNames[n] = true
	}
	clusterNames := map[string]bool{}
	for _, n := range crep.Counters.Names() {
		clusterNames[n] = true
	}

	var missing []string
	for n := range clusterNames {
		if !serialNames[n] && !clusterOnlyCounters[n] {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("cluster counters missing from serial run: %v", missing)
	}
	missing = nil
	for n := range serialNames {
		if !clusterNames[n] && !serialOnlyCounters[n] {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("serial counters missing from cluster run: %v", missing)
	}

	// The allowlists must stay honest: every entry must actually occur on
	// its side, or it is dead weight hiding a real regression.
	for _, n := range clusterAlwaysCounters {
		if !clusterNames[n] {
			t.Errorf("clusterAlwaysCounters lists %s but the cluster run never emitted it", n)
		}
	}
	for n := range serialOnlyCounters {
		if !serialNames[n] {
			t.Errorf("serialOnlyCounters lists %s but the serial run never emitted it", n)
		}
	}

	// Logical record counters must agree exactly, not just exist.
	for _, n := range []string{
		mapreduce.CtrMapInputRecords, mapreduce.CtrMapOutputRecords,
		mapreduce.CtrReduceInputGroups, mapreduce.CtrReduceOutputRecords,
		mapreduce.CtrShuffleBytes,
	} {
		if s, cv := srep.Get(n), crep.Counters.Get(n); s != cv {
			t.Errorf("%s: serial=%d cluster=%d", n, s, cv)
		}
	}
}
