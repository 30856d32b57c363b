// Package history is the durable evidence trail of the minihadoop
// stack: a deterministic, append-only structured event log modelled on
// the two post-hoc artifacts real Hadoop operators read — the NameNode
// audit log (every namespace and block decision, with principal, path
// and result) and the JobTracker job-history files (job and task-attempt
// lifecycle, persisted into HDFS itself under /history/<jobid>/).
//
// Records are JSONL: one JSON object per line, keyed on the sim clock.
// Because attr maps marshal with sorted keys and every value comes off
// the virtual clock or the seeded scheduler, the serialized log is
// byte-identical across replays of the same seed — the property the
// golden-history test (internal/jobs) pins. On top of the log, report.go
// reconstructs per-task timelines, the job critical path and straggler
// attribution; cmd/mrhistory and the webui /history pages render it.
package history

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Event is one record of the log: a virtual-clock timestamp, a type tag,
// and a flat string attribute map. Marshalling an Event with
// encoding/json is byte-stable (attrs render with sorted keys).
type Event struct {
	TS    time.Duration     `json:"ts_ns"`
	Type  string            `json:"type"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Event types emitted by the NameNode audit producer (internal/hdfs).
// Client-facing namespace operations carry the caller's principal in the
// "user" attr and an "ok"/"error" result; control-plane decisions the
// NameNode takes on its own run as principal "hdfs".
const (
	EvAuditCreate        = "audit.create"
	EvAuditOpen          = "audit.open"
	EvAuditDelete        = "audit.delete"
	EvAuditRename        = "audit.rename"
	EvAuditMkdir         = "audit.mkdir"
	EvAuditSetrep        = "audit.setrep"
	EvAuditBlockAllocate = "audit.block_allocate"
	EvAuditRereplicate   = "audit.rereplicate"
	EvAuditCorrupt       = "audit.corrupt_replica"
	EvAuditReplicaDrop   = "audit.replica_drop"
	EvAuditDatanodeDead  = "audit.datanode_dead"
	EvAuditSafemodeExit  = "audit.safemode_exit"
)

// Event types emitted by the JobTracker job-history producer
// (internal/mrcluster).
const (
	EvJobSubmit     = "job.submit"
	EvJobInit       = "job.init"
	EvJobFinish     = "job.finish"
	EvAttemptStart  = "attempt.start"
	EvAttemptFinish = "attempt.finish"
	EvAttemptFail   = "attempt.fail"
	EvAttemptKill   = "attempt.kill"
)

// PrincipalNameNode is the principal audit events carry when the
// NameNode itself (not a client) made the decision.
const PrincipalNameNode = "hdfs"

// Metric names the history subsystem adds to the obs registry. The full
// taxonomy is documented in docs/OBSERVABILITY.md.
const (
	MetricAuditEvents    = "history.audit_events"
	MetricJobEvents      = "history.job_events"
	MetricFilesPersisted = "history.files_persisted"
	MetricBytesPersisted = "history.bytes_persisted"
)

// Root is the HDFS directory job-history files persist under.
const Root = "/history"

// Dir returns the HDFS history directory of a job.
func Dir(jobID string) string { return Root + "/" + jobID }

// EventsPath returns the HDFS path of a job's history file.
func EventsPath(jobID string) string { return Dir(jobID) + "/events.jsonl" }

// Log is an append-only event log. The zero value of *Log (nil) is
// usable and drops everything, so producers need no nil checks; the
// mutex makes Append safe from the serial runner's real goroutines.
type Log struct {
	mu     sync.Mutex
	events []Event
	ctr    *obs.Counter
}

// NewLog returns an empty log. ctr, when non-nil, is incremented once
// per appended event (the history.* emission metrics).
func NewLog(ctr *obs.Counter) *Log {
	return &Log{ctr: ctr}
}

// Append records one event.
func (l *Log) Append(ts time.Duration, typ string, attrs map[string]string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, Event{TS: ts, Type: typ, Attrs: attrs})
	l.mu.Unlock()
	l.ctr.Inc()
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of all recorded events in append order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Bytes serializes the log as JSONL. Byte-identical across replays of
// the same seed.
func (l *Log) Bytes() ([]byte, error) {
	return Marshal(l.Events())
}

// Marshal renders records — Events, or the obs.Spans of a trace export —
// as JSONL: one compact JSON object per line. Byte-stable, since attr
// maps marshal with sorted keys and record order is deterministic.
func Marshal[T any](recs []T) ([]byte, error) {
	var buf bytes.Buffer
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// Parse decodes a JSONL log of T records (the inverse of Marshal; blank
// lines are skipped, so a trailing newline is fine). A torn or corrupt
// line is an error naming the line, never a partial result.
func Parse[T any](data []byte) ([]T, error) {
	var out []T
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec T
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("jsonl: line %d: %w", i+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
