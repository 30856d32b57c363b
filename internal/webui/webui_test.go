package webui_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/jobs"
	"repro/internal/mrcluster"
	"repro/internal/regionserver"
	"repro/internal/vfs"
	"repro/internal/webui"
	"repro/internal/yarn"
)

func setup(t *testing.T) *httptest.Server {
	t.Helper()
	srv, _ := setupCluster(t, nil)
	return srv
}

// setupCluster runs the canonical wordcount on a 4-node cluster and
// serves the aftermath. arm, when non-nil, configures the cluster before
// the job runs.
func setupCluster(t *testing.T, arm func(*core.MiniCluster)) (*httptest.Server, *core.MiniCluster) {
	t.Helper()
	c, err := core.New(core.Options{Nodes: 4, Seed: 6, HDFS: hdfs.Config{BlockSize: 64 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if arm != nil {
		arm(c)
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 500, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(jobs.WordCount("/in", "/out", true)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(webui.Handler(c))
	t.Cleanup(srv.Close)
	return srv, c
}

func get(t *testing.T, srv *httptest.Server, path string) (code int, contentType, body string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

const (
	textPlain = "text/plain; charset=utf-8"
	appJSON   = "application/json; charset=utf-8"
)

func TestEndpoints(t *testing.T) {
	srv := setup(t)
	cases := []struct {
		path        string
		status      int
		contentType string
		wants       []string
	}{
		{"/", http.StatusOK, textPlain, []string{"/dfshealth", "/jobtracker", "/engine", "/history"}},
		{"/dfshealth", http.StatusOK, textPlain, []string{"Live nodes: 4", "Blocks:"}},
		{"/jobtracker", http.StatusOK, textPlain, []string{"SUCCEEDED", "TaskTrackers: 4/4 alive"}},
		{"/fsck", http.StatusOK, textPlain, []string{"is HEALTHY"}},
		{"/topology", http.StatusOK, textPlain, []string{"[NameNode]", "blk_"}},
		{"/counters", http.StatusOK, textPlain, []string{"MAP_INPUT_RECORDS", "SHUFFLE_BYTES"}},
		{"/metrics", http.StatusOK, appJSON, []string{
			`"hdfs.nn.blocks_allocated"`, `"mr.jt.jobs_succeeded"`, `"mr.job"`,
			`"history.audit_events"`, `"history.job_events"`, `"history.files_persisted"`,
		}},
		// A 4-node cluster: per node two heartbeats and a block report, plus
		// the NameNode's two monitors and the JobTracker's expiry check, on
		// the two periods of the default configuration.
		{"/engine", http.StatusOK, textPlain, []string{
			"events fired:", "from ticker lanes", "live tickers:    15 on 2 lane(s)",
		}},
		{"/timeline", http.StatusOK, textPlain, []string{"job_wordcount", "succeeded", "map    |", "locality="}},
		{"/history", http.StatusOK, textPlain, []string{"job_wordcount_combiner_0001"}},
		{"/history/", http.StatusOK, textPlain, []string{"job_wordcount_combiner_0001"}},
		{"/history/job_wordcount_combiner_0001", http.StatusOK, textPlain, []string{
			"Job job_wordcount_combiner_0001 (wordcount-combiner) SUCCEEDED",
			"Critical path",
			"Slowest",
			"Per-node successful attempts",
			"Timeline (rebuilt from the history file)",
		}},
		{"/scheduler", http.StatusOK, textPlain, []string{"YARN is not enabled"}},
		{"/serving", http.StatusOK, textPlain, []string{"serving tier is not enabled"}},
		{"/history/job_missing_9999", http.StatusNotFound, "", nil},
		{"/nope", http.StatusNotFound, "", nil},
	}
	for _, tc := range cases {
		code, ct, body := get(t, srv, tc.path)
		if code != tc.status {
			t.Fatalf("%s -> %d, want %d", tc.path, code, tc.status)
		}
		if tc.contentType != "" && ct != tc.contentType {
			t.Fatalf("%s content-type = %q, want %q", tc.path, ct, tc.contentType)
		}
		for _, want := range tc.wants {
			if !strings.Contains(body, want) {
				t.Fatalf("%s missing %q:\n%s", tc.path, want, body)
			}
		}
	}
}

// TestSchedulerPage runs a job on a YARN-backed cluster and checks the
// ResourceManager status page renders the queue table and RM counters.
func TestSchedulerPage(t *testing.T) {
	c, err := core.New(core.Options{
		Nodes: 4, Seed: 6,
		HDFS: hdfs.Config{BlockSize: 64 << 10},
		YARN: &yarn.CapacityOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 500, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(jobs.WordCount("/in", "/out", true)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(webui.Handler(c))
	defer srv.Close()
	code, ct, body := get(t, srv, "/scheduler")
	if code != http.StatusOK || ct != textPlain {
		t.Fatalf("/scheduler -> %d %q", code, ct)
	}
	for _, want := range []string{"Resource Manager", "Node pool: 4/4 nodes active", "root.default", "Containers launched:"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/scheduler missing %q:\n%s", want, body)
		}
	}
}

// TestServingPage enables the region-server tier, serves a little
// traffic, and checks the /serving status page renders the server table,
// region layout and cache counters.
func TestServingPage(t *testing.T) {
	c, err := core.New(core.Options{
		Nodes: 6, Seed: 6,
		Serving: &regionserver.Options{Servers: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Serving.Stop()
	if err := c.Serving.Master.CreateTable("usertable", []string{"g", "n"}); err != nil {
		t.Fatal(err)
	}
	cl := c.Serving.NewCachedClient(4, 64)
	now := c.Engine.Now()
	for _, k := range []string{"alpha", "golf", "zulu"} {
		if _, err := cl.Put(now, "usertable", k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // misses then hits
		if _, _, err := cl.Get(now, "usertable", "alpha"); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(webui.Handler(c))
	defer srv.Close()
	code, ct, body := get(t, srv, "/serving")
	if code != http.StatusOK || ct != textPlain {
		t.Fatalf("/serving -> %d %q", code, ct)
	}
	for _, want := range []string{"rs1", "Table usertable (3 regions)", "META check: ok", "Hottest regions"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/serving missing %q:\n%s", want, body)
		}
	}
}

func TestPagesBeforeAnyJob(t *testing.T) {
	c, err := core.New(core.Options{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(webui.Handler(c))
	defer srv.Close()
	for path, want := range map[string]string{
		"/counters": "no completed jobs",
		"/history":  "no job history yet",
	} {
		code, _, body := get(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("%s -> %d", path, code)
		}
		if !strings.Contains(body, want) {
			t.Fatalf("%s: %s", path, body)
		}
	}
}

// attemptRows returns the gantt rows of a page: the lines drawn as
// "<kind> |<bar>| <attempt> ...".
func attemptRows(page string) []string {
	var rows []string
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "map    |") || strings.HasPrefix(line, "reduce |") {
			rows = append(rows, line)
		}
	}
	return rows
}

// TestTimelineMatchesHistoryPage: /timeline draws a job's attempts from
// the JobTracker's live history log, /history/<job> from the durable file
// written from it; both go through one report builder and one gantt
// renderer, so for the same job the rows are the same lines — with two
// jobs on the cluster, each job's attempts under its own.
func TestTimelineMatchesHistoryPage(t *testing.T) {
	srv, c := setupCluster(t, nil)
	second := jobs.WordCount("/in", "/out2", true)
	second.Name = "wc"
	if _, err := c.Run(second); err != nil {
		t.Fatal(err)
	}
	_, _, timeline := get(t, srv, "/timeline")
	live := attemptRows(timeline)
	var durable []string
	for _, jobID := range []string{"job_wordcount_combiner_0001", "job_wc_0002"} {
		code, _, hist := get(t, srv, "/history/"+jobID)
		if code != http.StatusOK {
			t.Fatalf("/history/%s -> %d", jobID, code)
		}
		durable = append(durable, attemptRows(hist)...)
	}
	if len(live) < 4 {
		t.Fatalf("/timeline drew %d attempt rows:\n%s", len(live), timeline)
	}
	if strings.Join(live, "\n") != strings.Join(durable, "\n") {
		t.Fatalf("attempt rows differ:\n/timeline:\n%s\n/history:\n%s", strings.Join(live, "\n"), strings.Join(durable, "\n"))
	}
}

// TestTimelineSaysWhyAttemptsFailed: a failed attempt's error is in the
// job's history, not in its span, so /timeline shows it whatever the
// trace sampling rate — in the same rows /history/<jobid> draws.
func TestTimelineSaysWhyAttemptsFailed(t *testing.T) {
	srv, _ := setupCluster(t, func(c *core.MiniCluster) {
		c.Obs.SetTraceSampling(1 << 30)
		c.MR.InjectTaskFault(mrcluster.TaskFault{JobName: "wordcount-combiner", Probability: 0.3})
	})
	_, _, timeline := get(t, srv, "/timeline")
	_, _, hist := get(t, srv, "/history/job_wordcount_combiner_0001")
	live := strings.Join(attemptRows(timeline), "\n")
	if !strings.Contains(live, "(injected task error") {
		t.Fatalf("/timeline does not say why an attempt failed:\n%s", timeline)
	}
	if durable := strings.Join(attemptRows(hist), "\n"); live != durable {
		t.Fatalf("attempt rows differ:\n/timeline:\n%s\n/history:\n%s", live, durable)
	}
}

// TestTimelineOutlivesTheHistoryFile: /timeline reads the JobTracker, not
// the file it persisted, so a job whose history file is gone is still
// drawn there while /history/<jobid> is a 404.
func TestTimelineOutlivesTheHistoryFile(t *testing.T) {
	srv, c := setupCluster(t, nil)
	const jobID = "job_wordcount_combiner_0001"
	if err := c.FS().Remove(history.Dir(jobID), true); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get(t, srv, "/history/"+jobID); code != http.StatusNotFound {
		t.Fatalf("/history/%s -> %d after its file was removed, want 404", jobID, code)
	}
	code, _, timeline := get(t, srv, "/timeline")
	if code != http.StatusOK || !strings.Contains(timeline, "=== "+jobID) || len(attemptRows(timeline)) == 0 {
		t.Fatalf("/timeline -> %d without the job:\n%s", code, timeline)
	}
}

// TestHistoryErrorsAreNotNotFound: only a job with no history file is a
// 404. A history file that is there but torn, or parses but makes no
// sense, is a 500 that says what is wrong with it; a listing failure is
// not "no job history yet".
func TestHistoryErrorsAreNotNotFound(t *testing.T) {
	srv, c := setupCluster(t, nil)
	const jobID = "job_wordcount_combiner_0001"
	good, err := vfs.ReadFile(c.FS(), history.EventsPath(jobID))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(good, []byte("\n"))
	for _, tc := range []struct {
		name   string
		path   string
		file   []byte // nil leaves the history file alone
		status int
		want   string
	}{
		{"intact", "/history/" + jobID, nil, http.StatusOK, "Critical path"},
		{"missing job", "/history/job_missing_9999", nil, http.StatusNotFound, "not found"},
		{"truncated mid-record", "/history/" + jobID, good[:len(good)-20], http.StatusInternalServerError, "events.jsonl: jsonl: line"},
		{"garbage line", "/history/" + jobID, append(append([]byte{}, lines[0]...), "\x00not json\n"...), http.StatusInternalServerError, "jsonl: line 2"},
		{"terminal event of an unknown attempt", "/history/" + jobID,
			append(append([]byte{}, lines[0]...), `{"ts_ns":9,"type":"attempt.finish","attrs":{"attempt":"ghost"}}`+"\n"...),
			http.StatusInternalServerError, `unknown attempt "ghost"`},
		{"no job.submit", "/history/" + jobID, []byte("\n"), http.StatusInternalServerError, "no job.submit event"},
		{"index still lists the job", "/history", nil, http.StatusOK, jobID},
	} {
		if tc.file != nil {
			if err := c.FS().Remove(history.EventsPath(jobID), false); err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFile(c.FS(), history.EventsPath(jobID), tc.file); err != nil {
				t.Fatal(err)
			}
		}
		code, _, body := get(t, srv, tc.path)
		if code != tc.status || !strings.Contains(body, tc.want) {
			t.Errorf("%s: %s -> %d, want %d with %q; body:\n%s", tc.name, tc.path, code, tc.status, tc.want, body)
		}
	}

	// A /history that cannot be listed is an error, not an empty history
	// server.
	c2, err := core.New(core.Options{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c2.FS(), history.Root, []byte("not a directory")); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(webui.Handler(c2))
	defer srv2.Close()
	if code, _, body := get(t, srv2, "/history"); code != http.StatusInternalServerError || strings.Contains(body, "no job history yet") {
		t.Errorf("/history over a plain file -> %d:\n%s", code, body)
	}
}
