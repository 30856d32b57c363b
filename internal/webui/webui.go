// Package webui serves the cluster's status pages over HTTP — the
// NameNode and JobTracker "web interfaces" the paper's students tunneled
// SSH connections to reach in Fall 2012. Pages are plain text renders of
// live cluster state (/metrics is the obs snapshot as JSON); the table in
// Handler is the one list of them, and / serves it as the index.
package webui

import (
	"errors"
	"fmt"
	"net/http"
	"path"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/mrcluster"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Handler returns an http.Handler exposing the cluster's status pages.
//
// Concurrency note: the simulation is single-threaded; serve from the
// same goroutine that drives the engine (or a quiesced cluster, as the
// teaching flows do — run the job, then browse the aftermath).
func Handler(c *core.MiniCluster) http.Handler {
	// A page that names something absent — a job with no history file, an
	// unknown trace id — is a 404; any other failure (a corrupt history
	// file, an I/O error) is a 500 carrying the error, so the two cannot
	// be mistaken for each other.
	serve := func(w http.ResponseWriter, r *http.Request, contentType string, fn func() (string, error)) {
		body, err := fn()
		switch {
		case errors.Is(err, vfs.ErrNotExist) || errors.Is(err, trace.ErrNoTrace):
			http.NotFound(w, r)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", contentType)
		fmt.Fprint(w, body)
	}
	text := func(fn func() (string, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { serve(w, r, "text/plain; charset=utf-8", fn) }
	}
	// under serves <prefix><id> as the page of one item, and the bare
	// prefix as the index page.
	under := func(prefix string, index func() (string, error), item func(id string) (string, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			fn := index
			if id := strings.TrimPrefix(r.URL.Path, prefix); id != "" {
				fn = func() (string, error) { return item(id) }
			}
			text(fn)(w, r)
		}
	}
	traces := func() (string, error) { return tracesPage(c.Obs), nil }
	histories := func() (string, error) { return historyIndexPage(c.FS()) }
	// A path ending in <id> is served for everything under its prefix.
	pages := []struct {
		path, blurb string
		h           http.HandlerFunc
	}{
		{"/dfshealth", "NameNode status (live/dead nodes, blocks, safe mode)", text(func() (string, error) { return c.DFS.StatusPage(), nil })},
		{"/jobtracker", "JobTracker status (slots, jobs, per-tracker state)", text(func() (string, error) { return c.MR.StatusPage(), nil })},
		{"/fsck", "filesystem audit", text(func() (string, error) {
			rep, err := c.Fsck()
			if err != nil {
				return "", err
			}
			return rep.String(), nil
		})},
		{"/topology", "component diagram (Figure 2)", text(func() (string, error) { return c.RenderTopology(), nil })},
		{"/scheduler", "YARN ResourceManager status (queues, apps, node pool)", text(func() (string, error) {
			if c.RM == nil {
				return "YARN is not enabled on this cluster (set Options.YARN)\n", nil
			}
			return c.RM.StatusPage(), nil
		})},
		{"/serving", "region-server tier status (regions, heat, cache, recovery)", text(func() (string, error) {
			if c.Serving == nil {
				return "the serving tier is not enabled on this cluster (set Options.Serving)\n", nil
			}
			return c.Serving.StatusPage(), nil
		})},
		{"/counters", "last successful job's counters", text(func() (string, error) {
			ctrs := c.MR.JT.CompletedJobCounters()
			if ctrs == nil {
				return "no completed jobs yet\n", nil
			}
			return ctrs.String(), nil
		})},
		{"/metrics", "cluster metrics + spans (JSON snapshot)", func(w http.ResponseWriter, r *http.Request) {
			serve(w, r, "application/json; charset=utf-8", func() (string, error) {
				data, err := c.Obs.SnapshotJSON()
				return string(data), err
			})
		}},
		{"/engine", "sim engine counters (events by queue, high-water, tickers, free list)", text(func() (string, error) { return enginePage(c.Engine), nil })},
		{"/timeline", "per-job task-attempt timeline from the live job histories", text(func() (string, error) { return timelinePage(c.MR.JT) })},
		{"/history", "persisted job histories (the history server)", text(histories)},
		{"/history/<id>", "one job's critical-path analysis and attempt timeline", under("/history/", histories,
			func(jobID string) (string, error) { return historyJobPage(c.FS(), jobID) })},
		{"/traces", "recorded traces, slowest first", text(traces)},
		{"/trace/<id>", "one trace's waterfall, critical path and blame", under("/trace/", traces,
			func(id string) (string, error) { return traceWaterfallPage(c.Obs, id) })},
	}
	mux := http.NewServeMux()
	var index strings.Builder
	tw := tabwriter.NewWriter(&index, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "minihadoop cluster\n")
	for _, p := range pages {
		mux.Handle(strings.TrimSuffix(p.path, "<id>"), p.h)
		fmt.Fprintf(tw, "  %s\t%s\n", p.path, p.blurb)
	}
	tw.Flush()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		text(func() (string, error) { return index.String(), nil })(w, r)
	})
	return mux
}

// enginePage renders the sim engine's own counters: where the events that
// carried the cluster this far fired from, and what they cost in queue
// depth and allocations (docs/OBSERVABILITY.md reads the fields).
func enginePage(e *sim.Engine) string {
	s := e.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "=== sim engine (virtual time %v) ===\n", e.Now())
	fmt.Fprintf(&b, "events fired:    %d (%d from the heap, %d from ticker lanes)\n", e.Processed, s.HeapFired, s.LaneFired)
	fmt.Fprintf(&b, "events pending:  %d\n", e.Pending())
	fmt.Fprintf(&b, "cancelled swept: %d\n", s.Swept)
	fmt.Fprintf(&b, "high-water:      heap %d, longest lane %d\n", s.HeapHigh, s.LaneHigh)
	fmt.Fprintf(&b, "live tickers:    %d on %d lane(s)\n", s.Tickers, s.Lanes)
	fmt.Fprintf(&b, "event structs:   %d reused, %d allocated\n", s.FreeHits, s.FreeMisses)
	return b.String()
}

// historyIndexPage lists the job histories persisted under /history in
// HDFS — the history server's front page. The directory not existing yet
// is the empty index; any other listing failure is an error.
func historyIndexPage(fs vfs.FileSystem) (string, error) {
	infos, err := fs.List(history.Root)
	if err != nil && !errors.Is(err, vfs.ErrNotExist) {
		return "", err
	}
	if len(infos) == 0 {
		return "no job history yet\n", nil
	}
	var b strings.Builder
	b.WriteString("job history (open /history/<jobid>):\n")
	for _, fi := range infos {
		if fi.IsDir {
			fmt.Fprintf(&b, "  %s\n", path.Base(fi.Path))
		}
	}
	return b.String(), nil
}

// historyJobPage renders one persisted job history: the critical-path
// analysis followed by the attempt gantt /timeline draws, here rebuilt
// from the durable file rather than the JobTracker's live log.
func historyJobPage(fs vfs.FileSystem, jobID string) (string, error) {
	data, err := vfs.ReadFile(fs, history.EventsPath(jobID))
	if err != nil {
		return "", err
	}
	var rep *history.JobReport
	evs, err := history.Parse[history.Event](data)
	if err == nil {
		rep, err = history.BuildJobReport(evs)
	}
	if err != nil {
		return "", fmt.Errorf("%s: %w", history.EventsPath(jobID), err)
	}
	var b strings.Builder
	b.WriteString(rep.AnalysisString())
	b.WriteString("\nTimeline (rebuilt from the history file):\n")
	attemptGantt(&b, rep)
	return b.String(), nil
}

// timelinePage renders a per-job gantt view of the JobTracker's history
// logs: one section per finished job, one bar per attempt, positioned on
// the job's own time axis. This is the page lab exercises read to see
// where a job's time went (see docs/OBSERVABILITY.md).
func timelinePage(jt *mrcluster.JobTracker) (string, error) {
	reports, err := jt.Reports()
	if err != nil || len(reports) == 0 {
		return "no completed jobs yet\n", err
	}
	var b strings.Builder
	for _, rep := range reports {
		fmt.Fprintf(&b, "=== %s (%s) %s — start %v, ran %v ===\n",
			rep.JobID, rep.Name, rep.Outcome,
			rep.Submitted.Round(time.Millisecond), rep.Makespan().Round(time.Millisecond))
		attemptGantt(&b, rep)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// attemptGantt renders one row per attempt of rep — kind, a bar on the
// job's own time axis, id, node, duration, tags and, for an attempt that
// was killed or failed, why. Both /timeline and /history/<jobid> draw
// their attempts with it.
func attemptGantt(b *strings.Builder, rep *history.JobReport) {
	for _, a := range rep.Attempts {
		reason := ""
		if a.Reason != "" {
			reason = " (" + a.Reason + ")"
		}
		fmt.Fprintf(b, "%-6s |%s| %-34s %-8s %v %s%s\n",
			a.Kind, ganttBar(a.Start, a.End, rep.Submitted, rep.Makespan()), a.ID, a.Node,
			a.Duration().Round(time.Millisecond), a.Tags(), reason)
	}
}

// timelineWidth is the character width of the rendered span bars.
const timelineWidth = 60

// ganttBar renders one timelineWidth-character bar for [start, end] on a
// time axis beginning at origin and spanning span — the bar of every
// attempt row and of every span of the /trace/<id> waterfall. An extent
// that is empty or runs backwards (an attempt still running has no end)
// draws one cell; so does everything on an axis of no length.
func ganttBar(start, end, origin, span time.Duration) string {
	if span <= 0 {
		span = 1
	}
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
