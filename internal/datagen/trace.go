package datagen

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// Google cluster trace event types (subset of the 2011 trace schema).
const (
	EvSubmit   = 0
	EvSchedule = 1
	EvEvict    = 2
	EvFail     = 3
	EvFinish   = 4
	EvKill     = 5
)

// TraceOpts sizes the Google cluster trace generator.
type TraceOpts struct {
	Jobs      int
	MeanTasks int
	Seed      int64
}

// flakyJobBias boosts one job's failure probability so "the job with the
// most task resubmissions" has an unambiguous answer.
const flakyJobBias = 6

// TraceTruth is the ground truth for the Fall 2012 second assignment:
// the job with the largest number of task resubmissions. A resubmission
// is a SUBMIT event for a (job, task) pair beyond its first.
type TraceTruth struct {
	Events        int64
	Resubmissions map[int64]int64
	MaxJob        int64
	MaxResub      int64
}

// Trace writes task_events.csv lines of the form
// "timestamp,jobID,taskIndex,machineID,eventType" and returns the truth.
func Trace(fs vfs.FileSystem, path string, opts TraceOpts) (*TraceTruth, int64, error) {
	if opts.Jobs <= 0 {
		opts.Jobs = 50
	}
	if opts.MeanTasks <= 0 {
		opts.MeanTasks = 20
	}
	rng := sim.NewRand(opts.Seed).Derive("trace")
	truth := &TraceTruth{Resubmissions: map[int64]int64{}}

	type event struct {
		ts   int64
		job  int64
		task int
		mach int
		typ  int
	}
	var events []event
	flaky := rng.Intn(opts.Jobs) // the deliberately crash-looping job
	for j := 0; j < opts.Jobs; j++ {
		jobID := int64(6200000000 + j*1000 + rng.Intn(999))
		tasks := 1 + rng.Intn(2*opts.MeanTasks)
		failP := 0.05 + rng.Float64()*0.1
		if j == flaky {
			failP *= flakyJobBias
			if failP > 0.9 {
				failP = 0.9
			}
		}
		base := int64(rng.Intn(1_000_000)) * 1000
		for t := 0; t < tasks; t++ {
			ts := base + int64(t)*17
			attempts := 0
			for {
				mach := 1 + rng.Intn(5000)
				events = append(events, event{ts, jobID, t, mach, EvSubmit})
				if attempts > 0 {
					truth.Resubmissions[jobID]++
				}
				ts += int64(1 + rng.Intn(500))
				events = append(events, event{ts, jobID, t, mach, EvSchedule})
				ts += int64(10 + rng.Intn(100000))
				attempts++
				if attempts < 12 && rng.Bernoulli(failP) {
					typ := EvFail
					if rng.Bernoulli(0.3) {
						typ = EvEvict
					}
					events = append(events, event{ts, jobID, t, mach, typ})
					ts += int64(1 + rng.Intn(1000))
					continue // resubmit
				}
				events = append(events, event{ts, jobID, t, mach, EvFinish})
				break
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].ts != events[j].ts {
			return events[i].ts < events[j].ts
		}
		if events[i].job != events[j].job {
			return events[i].job < events[j].job
		}
		return events[i].task < events[j].task
	})
	n, err := writeLines(fs, path, func(w *bufio.Writer) error {
		for _, e := range events {
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d\n", e.ts, e.job, e.task, e.mach, e.typ); err != nil {
				return err
			}
			truth.Events++
		}
		return nil
	})
	if err != nil {
		return nil, n, err
	}
	for job, r := range truth.Resubmissions {
		if r > truth.MaxResub || (r == truth.MaxResub && job < truth.MaxJob) {
			truth.MaxJob, truth.MaxResub = job, r
		}
	}
	return truth, n, nil
}

// --- Google-trace-style multi-tenant workload ---
//
// TraceWorkload generates the arrival schedule the multi-tenant YARN
// experiments replay: thousands of applications in the shape of the 2011
// Google cluster trace — a heavy-tailed mix of short service pings and
// long batch sweeps — plus the paper's deadline meltdown scaled up: a
// cohort of student jobs whose submissions bunch at the end of the
// window (sqrt-procrastination, as in E1). The output is pure data so
// the scheduler under test sees an identical workload however it is
// configured.

// Tenant queue names used by the generated workload.
const (
	QueueProd     = "prod"
	QueueBatch    = "batch"
	QueueStudents = "students"
)

// TraceTask is one container's worth of work inside a workload app.
type TraceTask struct {
	VCores   int
	MemoryMB int64
	Duration time.Duration
}

// TraceApp is one application arrival in the replayed trace.
type TraceApp struct {
	Name   string
	User   string
	Queue  string
	Submit time.Duration // offset from replay start
	Tasks  []TraceTask
}

// TraceWorkloadOpts sizes the workload generator.
type TraceWorkloadOpts struct {
	// Apps is the total application count (default 1200); Students of
	// them form the deadline cohort, the rest split ~40/60 between prod
	// and batch tenants.
	Apps int
	// Students is the deadline-cohort size (default 350 — the paper's 35
	// at 10x enrollment).
	Students int
	// Window is the replay horizon arrivals spread over (default 4h, the
	// E1 deadline window).
	Window time.Duration
	Seed   int64
}

func (o TraceWorkloadOpts) withDefaults() TraceWorkloadOpts {
	if o.Apps <= 0 {
		o.Apps = 1200
	}
	if o.Students <= 0 {
		o.Students = 350
	}
	if o.Students > o.Apps {
		o.Students = o.Apps
	}
	if o.Window <= 0 {
		o.Window = 4 * time.Hour
	}
	return o
}

// TraceWorkload builds the app arrival schedule, sorted by submit time
// (ties by name). Deterministic in opts.
func TraceWorkload(opts TraceWorkloadOpts) []TraceApp {
	opts = opts.withDefaults()
	rng := sim.NewRand(opts.Seed).Derive("trace-workload")
	var apps []TraceApp

	background := opts.Apps - opts.Students
	prodN := background * 2 / 5
	batchN := background - prodN

	// Prod: many short, small service-style apps, uniform arrivals.
	for i := 0; i < prodN; i++ {
		tasks := 2 + rng.Intn(5)
		app := TraceApp{
			Name:   fmt.Sprintf("prod-%04d", i),
			User:   fmt.Sprintf("svc-%d", rng.Intn(4)),
			Queue:  QueueProd,
			Submit: time.Duration(rng.Float64() * float64(opts.Window)),
		}
		for t := 0; t < tasks; t++ {
			app.Tasks = append(app.Tasks, TraceTask{
				VCores:   1,
				MemoryMB: 1024,
				Duration: 20*time.Second + time.Duration(rng.Intn(100))*time.Second,
			})
		}
		apps = append(apps, app)
	}

	// Batch: fewer, fatter ETL-style apps with a heavy tail. Arrivals
	// ramp toward the end of the window (sqrt skew, like the trace's
	// diurnal build-up), so the first half runs light — the autoscaler's
	// harvest — and the second half carries a standing backlog: the
	// queue the deadline cohort lands behind.
	for i := 0; i < batchN; i++ {
		tasks := 6 + rng.Intn(20)
		app := TraceApp{
			Name:   fmt.Sprintf("batch-%04d", i),
			User:   fmt.Sprintf("etl-%d", rng.Intn(6)),
			Queue:  QueueBatch,
			Submit: time.Duration(float64(opts.Window) * math.Sqrt(rng.Float64())),
		}
		for t := 0; t < tasks; t++ {
			d := time.Duration(90+rng.Intn(300)) * time.Second
			if rng.Bernoulli(0.12) { // the trace's long tail
				d *= 3
			}
			app.Tasks = append(app.Tasks, TraceTask{
				VCores:   1,
				MemoryMB: 2048,
				Duration: d,
			})
		}
		apps = append(apps, app)
	}

	// Students: the deadline meltdown at scale. sqrt(u) bunches the
	// cohort against the end of the window, as in E1.
	for i := 0; i < opts.Students; i++ {
		tasks := 3 + rng.Intn(7)
		app := TraceApp{
			Name:   fmt.Sprintf("student-%04d", i),
			User:   fmt.Sprintf("s%04d", i),
			Queue:  QueueStudents,
			Submit: time.Duration(float64(opts.Window) * math.Sqrt(rng.Float64())),
		}
		for t := 0; t < tasks; t++ {
			app.Tasks = append(app.Tasks, TraceTask{
				VCores:   1,
				MemoryMB: 1024,
				Duration: 30*time.Second + time.Duration(rng.Intn(90))*time.Second,
			})
		}
		apps = append(apps, app)
	}

	sort.Slice(apps, func(i, j int) bool {
		if apps[i].Submit != apps[j].Submit {
			return apps[i].Submit < apps[j].Submit
		}
		return apps[i].Name < apps[j].Name
	})
	return apps
}
