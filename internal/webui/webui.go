// Package webui serves the cluster's status pages over HTTP — the
// NameNode and JobTracker "web interfaces" the paper's students tunneled
// SSH connections to reach in Fall 2012. Pages are plain text renders of
// live cluster state:
//
//	/            index
//	/dfshealth   NameNode status (live/dead nodes, blocks, safe mode)
//	/jobtracker  JobTracker status (slots, jobs, per-tracker state)
//	/fsck        filesystem audit
//	/topology    the Figure-2 component diagram
//	/scheduler   YARN ResourceManager status (queues, apps, node pool)
//	/serving     region-server tier status (regions, heat, cache, recovery)
//	/counters    counters of the most recently completed job
//	/metrics     the full obs snapshot as JSON (counters, gauges, spans)
//	/timeline    per-job task-attempt timeline from the recorded spans
//	/history     persisted job histories (the history server)
//	/traces      recorded traces, slowest first
//	/trace/<id>  one trace's waterfall, critical path and blame
package webui

import (
	"fmt"
	"net/http"
	"path"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/mrcluster"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Handler returns an http.Handler exposing the cluster's status pages.
//
// Concurrency note: the simulation is single-threaded; serve from the
// same goroutine that drives the engine (or a quiesced cluster, as the
// teaching flows do — run the job, then browse the aftermath).
func Handler(c *core.MiniCluster) http.Handler {
	mux := http.NewServeMux()
	text := func(fn func() (string, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			body, err := fn()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, body)
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, `minihadoop cluster
  /dfshealth   NameNode status
  /jobtracker  JobTracker status
  /fsck        filesystem audit
  /topology    component diagram (Figure 2)
  /scheduler   YARN ResourceManager status (queues, apps, node pool)
  /serving     region-server tier status (regions, heat, cache, recovery)
  /counters    last completed job's counters
  /metrics     cluster metrics + spans (JSON snapshot)
  /timeline    per-job task-attempt timeline
  /history     persisted job histories (history server)
  /traces      recorded traces, slowest first
  /trace/<id>  one trace's waterfall, critical path and blame
`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := c.Obs.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/timeline", text(func() (string, error) { return TimelinePage(c.Obs), nil }))
	mux.Handle("/dfshealth", text(func() (string, error) { return c.DFS.StatusPage(), nil }))
	mux.Handle("/jobtracker", text(func() (string, error) { return c.MR.StatusPage(), nil }))
	mux.Handle("/topology", text(func() (string, error) { return c.RenderTopology(), nil }))
	mux.Handle("/scheduler", text(func() (string, error) {
		if c.RM == nil {
			return "YARN is not enabled on this cluster (set Options.YARN)\n", nil
		}
		return c.RM.StatusPage(), nil
	}))
	mux.Handle("/serving", text(func() (string, error) {
		if c.Serving == nil {
			return "the serving tier is not enabled on this cluster (set Options.Serving)\n", nil
		}
		return c.Serving.StatusPage(), nil
	}))
	mux.Handle("/fsck", text(func() (string, error) {
		rep, err := c.Fsck()
		if err != nil {
			return "", err
		}
		return rep.String(), nil
	}))
	mux.Handle("/counters", text(func() (string, error) {
		ctrs := c.MR.JT.CompletedJobCounters()
		if ctrs == nil {
			return "no completed jobs yet\n", nil
		}
		return ctrs.String(), nil
	}))
	mux.Handle("/traces", text(func() (string, error) { return TracesPage(c.Obs), nil }))
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/trace/")
		if id == "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, TracesPage(c.Obs))
			return
		}
		body, err := TraceWaterfallPage(c.Obs, id)
		if err != nil {
			// No trace with that id — mirror the history server's 404.
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, body)
	})
	mux.Handle("/history", text(func() (string, error) { return HistoryIndexPage(c.FS()), nil }))
	mux.HandleFunc("/history/", func(w http.ResponseWriter, r *http.Request) {
		jobID := strings.TrimPrefix(r.URL.Path, "/history/")
		if jobID == "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, HistoryIndexPage(c.FS()))
			return
		}
		body, err := HistoryJobPage(c.FS(), jobID)
		if err != nil {
			// No history file for that id — the history-server 404.
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, body)
	})
	return mux
}

// HistoryIndexPage lists the job histories persisted under /history in
// HDFS — the history server's front page.
func HistoryIndexPage(fs vfs.FileSystem) string {
	infos, err := fs.List(history.Root)
	if err != nil || len(infos) == 0 {
		return "no job history yet\n"
	}
	var b strings.Builder
	b.WriteString("job history (open /history/<jobid>):\n")
	for _, fi := range infos {
		if fi.IsDir {
			fmt.Fprintf(&b, "  %s\n", path.Base(fi.Path))
		}
	}
	return b.String()
}

// HistoryJobPage renders one persisted job history: the critical-path
// analysis followed by a per-attempt gantt on the job's own time axis
// (the same renderer as /timeline, but rebuilt from the durable file
// rather than live spans).
func HistoryJobPage(fs vfs.FileSystem, jobID string) (string, error) {
	data, err := vfs.ReadFile(fs, history.EventsPath(jobID))
	if err != nil {
		return "", err
	}
	evs, err := history.Parse(data)
	if err != nil {
		return "", err
	}
	rep, err := history.BuildJobReport(evs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(rep.AnalysisString())
	b.WriteString("\nTimeline (rebuilt from the history file):\n")
	span := rep.Makespan()
	if span <= 0 {
		span = 1
	}
	for _, a := range rep.Attempts {
		end := a.End
		if end < a.Start {
			end = a.Start
		}
		kind := a.Kind
		if kind == "map" {
			kind = "map   "
		}
		tags := a.Outcome
		if a.Speculative {
			tags += ",speculative"
		}
		if a.Locality >= 0 {
			tags += fmt.Sprintf(",locality=%d", a.Locality)
		}
		fmt.Fprintf(&b, "%s |%s| %-34s %-8s %v %s\n",
			kind, ganttBar(a.Start, end, rep.Submitted, span), a.ID, a.Node,
			a.Duration().Round(time.Millisecond), tags)
	}
	return b.String(), nil
}

// timelineWidth is the character width of the rendered span bars.
const timelineWidth = 60

// ganttBar renders one timelineWidth-character bar for [start, end] on a
// time axis beginning at origin and spanning span. Shared by /timeline
// (live spans) and /history/<jobid> (rebuilt from the history file).
func ganttBar(start, end, origin, span time.Duration) string {
	lo := int(timelineWidth * (start - origin) / span)
	hi := int(timelineWidth * (end - origin) / span)
	if lo < 0 {
		lo = 0
	}
	if lo > timelineWidth-1 {
		lo = timelineWidth - 1
	}
	if hi > timelineWidth {
		hi = timelineWidth
	}
	if hi <= lo {
		hi = lo + 1
	}
	return strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) +
		strings.Repeat(" ", timelineWidth-hi)
}

// TimelinePage renders a per-job gantt view of the recorded task-attempt
// spans: one section per finished job, one bar per attempt, positioned on
// the job's own time axis. This is the page lab exercises read to see
// where a job's time went (see docs/OBSERVABILITY.md).
func TimelinePage(reg *obs.Registry) string {
	// One pass: the job spans, and the attempt spans indexed by the job id
	// they carry in their attrs.
	var jobs []obs.Span
	attempts := map[string][]obs.Span{}
	for _, s := range reg.Spans() {
		switch s.Name {
		case mrcluster.SpanJob:
			jobs = append(jobs, s)
		case mrcluster.SpanMapAttempt, mrcluster.SpanReduceAttempt:
			attempts[s.Attrs["job"]] = append(attempts[s.Attrs["job"]], s)
		}
	}
	if len(jobs) == 0 {
		return "no completed jobs yet\n"
	}
	var b strings.Builder
	for _, job := range jobs {
		id := job.Attrs["job"]
		fmt.Fprintf(&b, "=== %s (%s) %s — start %v, ran %v ===\n",
			id, job.Attrs["name"], job.Attrs["outcome"],
			job.Start.Round(time.Millisecond), job.Duration().Round(time.Millisecond))
		spans := append([]obs.Span(nil), attempts[id]...)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].Attrs["attempt"] < spans[j].Attrs["attempt"]
		})
		span := job.Duration()
		if span <= 0 {
			span = 1
		}
		for _, s := range spans {
			bar := ganttBar(s.Start, s.End, job.Start, span)
			kind := "reduce"
			if s.Name == mrcluster.SpanMapAttempt {
				kind = "map   "
			}
			tags := s.Attrs["outcome"]
			if s.Attrs["speculative"] == "true" {
				tags += ",speculative"
			}
			if l, ok := s.Attrs["locality"]; ok {
				tags += ",locality=" + l
			}
			fmt.Fprintf(&b, "%s |%s| %-28s %-8s %v %s\n",
				kind, bar, s.Attrs["attempt"], s.Attrs["node"],
				s.Duration().Round(time.Millisecond), tags)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
