package jobs_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/serial"
	"repro/internal/vfs"
	"repro/internal/yarn"
)

// TestYARNModeEqualsSerial runs registry jobs on a cluster whose
// JobTracker negotiates every task container from a capacity
// ResourceManager instead of owning slots, and checks the output is
// byte-identical to the standalone runner. Scheduling machinery must
// never change answers.
func TestYARNModeEqualsSerial(t *testing.T) {
	for _, name := range []string{"wordcount", "airline-avg-combiner", "top-album"} {
		spec, ok := jobs.Lookup(name)
		if !ok {
			t.Fatalf("job %q not in registry", name)
		}
		t.Run(name, func(t *testing.T) {
			local := vfs.NewMemFS()
			p := stageFixture(t, local, name)
			sj, err := spec.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (&serial.Runner{FS: local, Parallelism: 3}).Run(sj); err != nil {
				t.Fatal(err)
			}
			serialOut, err := mapreduce.ReadOutput(local, "/out")
			if err != nil {
				t.Fatal(err)
			}

			c, err := core.New(core.Options{
				Nodes: 6,
				Seed:  5,
				HDFS:  hdfs.Config{BlockSize: 32 << 10},
				YARN:  &yarn.CapacityOptions{},
			})
			if err != nil {
				t.Fatal(err)
			}
			p2 := stageFixture(t, c.FS(), name)
			dj, err := spec.Build(p2)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Run(dj)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed {
				t.Fatalf("job failed under YARN mode: %v", rep.Err)
			}
			clusterOut, err := c.Output("/out")
			if err != nil {
				t.Fatal(err)
			}
			if serialOut != clusterOut {
				t.Fatalf("YARN-mode output differs from serial:\nserial  %d bytes\ncluster %d bytes",
					len(serialOut), len(clusterOut))
			}
			if c.RM == nil || !c.RM.AllFinished() {
				t.Fatalf("RM still has live applications after job completion")
			}
			if err := yarn.CheckLog(c.RM.EventLog().Events()); err != nil {
				t.Fatalf("scheduler event log violates invariants: %v", err)
			}
		})
	}
}
