package history

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// AttemptInfo is one task attempt reconstructed from a job-history file.
type AttemptInfo struct {
	ID          string
	Task        string
	Kind        string // "map" or "reduce"
	Node        string
	Locality    int // 0 data-local, 1 rack-local, 2 remote; -1 unknown (reduces)
	Speculative bool
	Start       time.Duration
	End         time.Duration
	Outcome     string // "succeeded", "failed", "killed"; "running" if no terminal event
	Reason      string // kill reason / failure error, when recorded
	Shuffle     time.Duration
}

// Duration returns the attempt's extent (zero while running).
func (a AttemptInfo) Duration() time.Duration {
	if a.End < a.Start {
		return 0
	}
	return a.End - a.Start
}

// NodeStat aggregates the successful attempts that ran on one host —
// the per-node table straggler hunts start from.
type NodeStat struct {
	Node     string
	Attempts int
	Total    time.Duration
}

// Mean returns the average successful-attempt duration on the node.
func (s NodeStat) Mean() time.Duration {
	if s.Attempts == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Attempts)
}

// JobReport is a job's history file reconstructed into timelines — the
// analysis layer over Parse, mirroring what `hadoop job -history` and
// the JobTracker history pages computed from the raw files.
type JobReport struct {
	JobID     string
	Name      string
	User      string
	Outcome   string
	Submitted time.Duration
	Finished  time.Duration
	MapTasks  int
	Reduces   int
	// Attempts holds every attempt in (start, id) order.
	Attempts []AttemptInfo
	// Counters is the job's final counter snapshot (from job.finish).
	Counters map[string]int64
}

// Makespan returns submit-to-finish time.
func (r *JobReport) Makespan() time.Duration { return r.Finished - r.Submitted }

// BuildJobReport reconstructs a report from one job's parsed events.
func BuildJobReport(events []Event) (*JobReport, error) {
	r := &JobReport{Counters: map[string]int64{}}
	idx := map[string]int{} // attempt id -> index in r.Attempts
	for _, e := range events {
		switch e.Type {
		case EvJobSubmit:
			r.JobID = e.Attrs.Get("job")
			r.Name = e.Attrs.Get("name")
			r.User = e.Attrs.Get("user")
			r.Submitted = e.TS
		case EvJobInit:
			r.MapTasks, _ = strconv.Atoi(e.Attrs.Get("maps"))
			r.Reduces, _ = strconv.Atoi(e.Attrs.Get("reduces"))
		case EvJobFinish:
			r.Finished = e.TS
			r.Outcome = e.Attrs.Get("outcome")
			for _, at := range e.Attrs {
				if name, ok := strings.CutPrefix(at.Key, "ctr."); ok {
					n, err := strconv.ParseInt(at.Value, 10, 64)
					if err == nil {
						r.Counters[name] = n
					}
				}
			}
		case EvAttemptStart:
			a := AttemptInfo{
				ID:          e.Attrs.Get("attempt"),
				Task:        e.Attrs.Get("task"),
				Kind:        e.Attrs.Get("kind"),
				Node:        e.Attrs.Get("node"),
				Locality:    -1,
				Speculative: e.Attrs.Get("speculative") == "true",
				Start:       e.TS,
				Outcome:     "running",
			}
			if l, ok := e.Attrs.Lookup("locality"); ok {
				a.Locality, _ = strconv.Atoi(l)
			}
			if s, ok := e.Attrs.Lookup("shuffle_ns"); ok {
				ns, _ := strconv.ParseInt(s, 10, 64)
				a.Shuffle = time.Duration(ns)
			}
			idx[a.ID] = len(r.Attempts)
			r.Attempts = append(r.Attempts, a)
		case EvAttemptFinish, EvAttemptFail, EvAttemptKill:
			i, ok := idx[e.Attrs.Get("attempt")]
			if !ok {
				return nil, fmt.Errorf("history: %s for unknown attempt %q", e.Type, e.Attrs.Get("attempt"))
			}
			a := &r.Attempts[i]
			a.End = e.TS
			switch e.Type {
			case EvAttemptFinish:
				a.Outcome = "succeeded"
			case EvAttemptFail:
				a.Outcome = "failed"
				a.Reason = e.Attrs.Get("error")
			case EvAttemptKill:
				a.Outcome = "killed"
				a.Reason = e.Attrs.Get("reason")
			}
		}
	}
	if r.JobID == "" {
		return nil, fmt.Errorf("history: no %s event in log", EvJobSubmit)
	}
	sort.SliceStable(r.Attempts, func(i, j int) bool {
		if r.Attempts[i].Start != r.Attempts[j].Start {
			return r.Attempts[i].Start < r.Attempts[j].Start
		}
		return r.Attempts[i].ID < r.Attempts[j].ID
	})
	return r, nil
}

// lastSucceeded returns the successful attempt of the given kind with
// the latest end time (ties broken by smallest ID), or nil.
func lastSucceeded(attempts []AttemptInfo, kind string) *AttemptInfo {
	var best *AttemptInfo
	for i := range attempts {
		a := &attempts[i]
		if a.Kind != kind || a.Outcome != "succeeded" {
			continue
		}
		if best == nil || a.End > best.End || (a.End == best.End && a.ID < best.ID) {
			best = a
		}
	}
	return best
}

// priorAttemptsOf returns the non-successful attempts of a task that
// ended before the winning attempt started — the retries that pushed the
// winner later, hence part of the path that bounds completion.
func priorAttemptsOf(attempts []AttemptInfo, task, winner string, before time.Duration) []AttemptInfo {
	var out []AttemptInfo
	for _, a := range attempts {
		if a.Task == task && a.ID != winner && a.Outcome != "succeeded" && a.End <= before {
			out = append(out, a)
		}
	}
	return out
}

// CriticalPath returns the attempt chain that bounds the job's
// completion time: the retries and winning attempt of the last map task
// to finish (no reduce can start earlier), then the retries and winning
// attempt of the last reduce task to finish. Map-only jobs end at the
// gating map.
func (r *JobReport) CriticalPath() []AttemptInfo {
	var path []AttemptInfo
	for _, kind := range []string{"map", "reduce"} {
		if win := lastSucceeded(r.Attempts, kind); win != nil {
			path = append(path, priorAttemptsOf(r.Attempts, win.Task, win.ID, win.Start)...)
			path = append(path, *win)
		}
	}
	return path
}

// SlowestAttempts returns the n longest successful attempts, longest
// first (ties broken by ID).
func (r *JobReport) SlowestAttempts(n int) []AttemptInfo {
	var done []AttemptInfo
	for _, a := range r.Attempts {
		if a.Outcome == "succeeded" {
			done = append(done, a)
		}
	}
	sort.SliceStable(done, func(i, j int) bool {
		if done[i].Duration() != done[j].Duration() {
			return done[i].Duration() > done[j].Duration()
		}
		return done[i].ID < done[j].ID
	})
	if len(done) > n {
		done = done[:n]
	}
	return done
}

// NodeStats aggregates successful attempts per host, sorted by host —
// a node whose mean sits far above the rest is the straggler.
func (r *JobReport) NodeStats() []NodeStat {
	idx := map[string]int{}
	var out []NodeStat
	for _, a := range r.Attempts {
		if a.Outcome != "succeeded" {
			continue
		}
		i, ok := idx[a.Node]
		if !ok {
			i = len(out)
			idx[a.Node] = i
			out = append(out, NodeStat{Node: a.Node})
		}
		out[i].Attempts++
		out[i].Total += a.Duration()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// ShuffleTotal sums the recorded shuffle time of successful reduce
// attempts; reduceTotal is those attempts' full durations, so the ratio
// is the fraction of reduce time spent fetching map output.
func (r *JobReport) ShuffleTotal() (shuffle, reduceTotal time.Duration) {
	for _, a := range r.Attempts {
		if a.Kind == "reduce" && a.Outcome == "succeeded" {
			shuffle += a.Shuffle
			reduceTotal += a.Duration()
		}
	}
	return shuffle, reduceTotal
}

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func fmtD(d time.Duration) string { return d.Round(time.Millisecond).String() }

// Tags renders the attempt's outcome and scheduling flags the way every
// report and status page shows them: "succeeded,speculative,locality=0".
func (a AttemptInfo) Tags() string {
	tags := a.Outcome
	if a.Speculative {
		tags += ",speculative"
	}
	if a.Locality >= 0 {
		tags += fmt.Sprintf(",locality=%d", a.Locality)
	}
	return tags
}

// attemptLine renders one attempt row for the analysis report.
func attemptLine(b *strings.Builder, a AttemptInfo, makespan time.Duration) {
	fmt.Fprintf(b, "  %-6s %-34s %-8s start=%-12s dur=%-12s %4.1f%%  %s\n",
		a.Kind, a.ID, a.Node, fmtD(a.Start), fmtD(a.Duration()), pct(a.Duration(), makespan), a.Tags())
}

// AnalysisString renders the critical-path report `mrhistory -analyze`
// prints: job summary, the attempt chain bounding completion, the
// slowest attempts, shuffle attribution and the per-node table.
func (r *JobReport) AnalysisString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Job %s (%s) %s\n", r.JobID, r.Name, strings.ToUpper(r.Outcome))
	var failed, killed, spec int
	for _, a := range r.Attempts {
		switch a.Outcome {
		case "failed":
			failed++
		case "killed":
			killed++
		}
		if a.Speculative {
			spec++
		}
	}
	fmt.Fprintf(&b, "  submitted %s, finished %s, makespan %s\n", fmtD(r.Submitted), fmtD(r.Finished), fmtD(r.Makespan()))
	fmt.Fprintf(&b, "  tasks: %d maps, %d reduces; attempts: %d (%d failed, %d killed, %d speculative)\n",
		r.MapTasks, r.Reduces, len(r.Attempts), failed, killed, spec)
	path := r.CriticalPath()
	fmt.Fprintf(&b, "Critical path (%d attempts bound completion):\n", len(path))
	var covered time.Duration
	for _, a := range path {
		attemptLine(&b, a, r.Makespan())
		covered += a.Duration()
	}
	fmt.Fprintf(&b, "  path work %s of %s makespan (%.1f%%); the rest is scheduling and heartbeat latency\n",
		fmtD(covered), fmtD(r.Makespan()), pct(covered, r.Makespan()))
	slow := r.SlowestAttempts(5)
	fmt.Fprintf(&b, "Slowest %d attempts:\n", len(slow))
	for _, a := range slow {
		attemptLine(&b, a, r.Makespan())
	}
	if shuffle, reduceTotal := r.ShuffleTotal(); reduceTotal > 0 {
		fmt.Fprintf(&b, "Shuffle: %s of %s total reduce time (%.1f%%)\n",
			fmtD(shuffle), fmtD(reduceTotal), pct(shuffle, reduceTotal))
	}
	b.WriteString("Per-node successful attempts:\n")
	for _, s := range r.NodeStats() {
		fmt.Fprintf(&b, "  %-8s attempts=%-3d mean=%s\n", s.Node, s.Attempts, fmtD(s.Mean()))
	}
	return b.String()
}

// SummaryString renders the plain (non -analyze) view: the job overview
// and every attempt in start order, like `hadoop job -history`.
func (r *JobReport) SummaryString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Job %s (%s) %s\n", r.JobID, r.Name, strings.ToUpper(r.Outcome))
	fmt.Fprintf(&b, "  user=%s submitted=%s finished=%s makespan=%s\n",
		r.User, fmtD(r.Submitted), fmtD(r.Finished), fmtD(r.Makespan()))
	fmt.Fprintf(&b, "  %d maps, %d reduces, %d attempts\n", r.MapTasks, r.Reduces, len(r.Attempts))
	for _, a := range r.Attempts {
		attemptLine(&b, a, r.Makespan())
	}
	if len(r.Counters) > 0 {
		b.WriteString("Counters:\n")
		names := make([]string, 0, len(r.Counters))
		for n := range r.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "    %s=%d\n", n, r.Counters[n])
		}
	}
	return b.String()
}
