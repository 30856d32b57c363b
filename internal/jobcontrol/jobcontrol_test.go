package jobcontrol_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobcontrol"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/serial"
	"repro/internal/vfs"
)

func TestTwoStageTracePipelineSerial(t *testing.T) {
	fs := vfs.NewMemFS()
	truth, _, err := datagen.Trace(fs, "/in/task_events.csv", datagen.TraceOpts{Jobs: 25, MeanTasks: 12, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	runner := &serial.Runner{FS: fs, Parallelism: 2}
	pipeline := jobs.TraceMaxResubmissionsPipeline("/in", "/tmp/stage1", "/out", 4)
	ctl := jobcontrol.New()
	ctl.Chain(pipeline...)
	if err := ctl.Run(func(j *mapreduce.Job) error {
		_, err := runner.Run(j)
		return err
	}, fs); err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadOutput(fs, "/out")
	if err != nil {
		t.Fatal(err)
	}
	jobID, resub, ok := jobs.ParseTraceAnswer(out)
	if !ok {
		t.Fatalf("bad answer %q", out)
	}
	if jobID != truth.MaxJob || resub != truth.MaxResub {
		t.Fatalf("pipeline answer job=%d n=%d, truth job=%d n=%d", jobID, resub, truth.MaxJob, truth.MaxResub)
	}
	// Intermediate output cleaned up.
	if vfs.Exists(fs, "/tmp/stage1") {
		t.Fatal("intermediate output not cleaned")
	}
}

func TestPipelineMatchesSingleStage(t *testing.T) {
	fs := vfs.NewMemFS()
	if _, _, err := datagen.Trace(fs, "/in/e.csv", datagen.TraceOpts{Jobs: 15, MeanTasks: 8, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	runner := &serial.Runner{FS: fs}
	if _, err := runner.Run(jobs.TraceMaxResubmissions("/in", "/out-single")); err != nil {
		t.Fatal(err)
	}
	ctl := jobcontrol.New()
	ctl.Chain(jobs.TraceMaxResubmissionsPipeline("/in", "/t1", "/out-multi", 3)...)
	if err := ctl.Run(func(j *mapreduce.Job) error {
		_, err := runner.Run(j)
		return err
	}, fs); err != nil {
		t.Fatal(err)
	}
	single, _ := mapreduce.ReadOutput(fs, "/out-single")
	multi, _ := mapreduce.ReadOutput(fs, "/out-multi")
	if strings.TrimSpace(single) != strings.TrimSpace(multi) {
		t.Fatalf("answers differ: single=%q multi=%q", single, multi)
	}
}

func TestPipelineOnCluster(t *testing.T) {
	c, err := core.New(core.Options{Nodes: 6, Seed: 4, HDFS: hdfs.Config{BlockSize: 64 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	truth, _, err := datagen.Trace(c.FS(), "/in/e.csv", datagen.TraceOpts{Jobs: 30, MeanTasks: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctl := jobcontrol.New()
	ctl.Chain(jobs.TraceMaxResubmissionsPipeline("/in", "/t1", "/out", 4)...)
	if err := ctl.Run(func(j *mapreduce.Job) error {
		_, err := c.Run(j)
		return err
	}, c.FS()); err != nil {
		t.Fatal(err)
	}
	out, err := c.Output("/out")
	if err != nil {
		t.Fatal(err)
	}
	jobID, resub, ok := jobs.ParseTraceAnswer(out)
	if !ok || jobID != truth.MaxJob || resub != truth.MaxResub {
		t.Fatalf("cluster pipeline answer %q, truth job=%d n=%d", out, truth.MaxJob, truth.MaxResub)
	}
}

func TestFailureSkipsDependents(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/x.txt", []byte("a b\n")); err != nil {
		t.Fatal(err)
	}
	ctl := jobcontrol.New()
	bad := jobs.WordCount("/missing-input", "/o1", false)
	good := jobs.WordCount("/in", "/o2", false)
	n1 := ctl.Add(bad)
	n2 := ctl.Add(good, n1)
	runner := &serial.Runner{FS: fs}
	err := ctl.Run(func(j *mapreduce.Job) error {
		_, err := runner.Run(j)
		return err
	}, fs)
	if !errors.Is(err, jobcontrol.ErrPipelineFailed) {
		t.Fatalf("want ErrPipelineFailed, got %v", err)
	}
	if n1.State != jobcontrol.Failed {
		t.Fatalf("n1 state = %v", n1.State)
	}
	if n2.State != jobcontrol.Skipped {
		t.Fatalf("n2 state = %v", n2.State)
	}
	if vfs.Exists(fs, "/o2") {
		t.Fatal("skipped job produced output")
	}
}

func TestIndependentJobsBothRun(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/x.txt", []byte("a b a\n")); err != nil {
		t.Fatal(err)
	}
	ctl := jobcontrol.New()
	ctl.Add(jobs.WordCount("/in", "/o1", false))
	ctl.Add(jobs.WordCount("/in", "/o2", true))
	runner := &serial.Runner{FS: fs}
	if err := ctl.Run(func(j *mapreduce.Job) error {
		_, err := runner.Run(j)
		return err
	}, fs); err != nil {
		t.Fatal(err)
	}
	if !vfs.Exists(fs, "/o1/_SUCCESS") || !vfs.Exists(fs, "/o2/_SUCCESS") {
		t.Fatal("independent jobs incomplete")
	}
}

func TestCycleDetected(t *testing.T) {
	ctl := jobcontrol.New()
	a := ctl.Add(jobs.WordCount("/in", "/o1", false))
	b := ctl.Add(jobs.WordCount("/in", "/o2", false), a)
	a.AddDepForTest(b)
	err := ctl.Run(func(j *mapreduce.Job) error { return nil }, nil)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}
