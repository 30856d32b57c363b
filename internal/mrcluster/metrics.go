package mrcluster

import (
	"repro/internal/history"
	"repro/internal/obs"
)

// Metric names emitted by the MapReduce runtime. The full taxonomy is
// documented in docs/OBSERVABILITY.md.
const (
	MetricJTJobsSubmitted     = "mr.jt.jobs_submitted"
	MetricJTJobsSucceeded     = "mr.jt.jobs_succeeded"
	MetricJTJobsFailed        = "mr.jt.jobs_failed"
	MetricJTMapsLaunched      = "mr.jt.maps_launched"
	MetricJTReducesLaunched   = "mr.jt.reduces_launched"
	MetricJTSpeculativeLaunch = "mr.jt.speculative_launched"
	MetricJTMapsFailed        = "mr.jt.maps_failed"
	MetricJTReducesFailed     = "mr.jt.reduces_failed"
	MetricJTAttemptsKilled    = "mr.jt.attempts_killed"
	MetricJTTrackerLosses     = "mr.jt.tracker_losses"
	MetricJTSchedulePasses    = "mr.jt.schedule_passes"
	MetricJTShuffleBytes      = "mr.jt.shuffle_bytes"
	MetricJTInputDecodedBytes = "mr.jt.input_decoded_bytes"
	MetricJTOutputFileBytes   = "mr.jt.output_file_bytes"
	MetricJTMapsDataLocal     = "mr.jt.maps_data_local"
	MetricJTMapsRackLocal     = "mr.jt.maps_rack_local"
	MetricJTMapsRemote        = "mr.jt.maps_remote"
	MetricMapAttemptTime      = "mr.map_attempt_time"
	MetricReduceAttemptTime   = "mr.reduce_attempt_time"
	MetricShuffleTime         = "mr.shuffle_time"
	MetricJTTracesPersisted   = "mr.jt.traces_persisted"

	// Span names.
	SpanMapAttempt    = "mr.map_attempt"
	SpanReduceAttempt = "mr.reduce_attempt"
	SpanJob           = "mr.job"
	SpanTask          = "mr.task"
	SpanShuffle       = "mr.shuffle"
)

// jtMetrics holds the JobTracker's interned metric handles; the per-kind
// launch/fail/run-time handles live in its attemptKind table.
type jtMetrics struct {
	jobsSubmitted     *obs.Counter
	jobsSucceeded     *obs.Counter
	jobsFailed        *obs.Counter
	speculativeLaunch *obs.Counter
	attemptsKilled    *obs.Counter
	trackerLosses     *obs.Counter
	schedulePasses    *obs.Counter
	shuffleBytes      *obs.Counter
	inputDecodedBytes *obs.Counter
	outputFileBytes   *obs.Counter
	shuffleTime       *obs.Histogram

	// Job-history emission/persistence counters (names owned by
	// internal/history so the webui and experiments read the same keys).
	historyEvents         *obs.Counter
	historyFilesPersisted *obs.Counter
	historyBytesPersisted *obs.Counter
	tracesPersisted       *obs.Counter
}

func newJTMetrics(r *obs.Registry) jtMetrics {
	return jtMetrics{
		jobsSubmitted:     r.Counter(MetricJTJobsSubmitted),
		jobsSucceeded:     r.Counter(MetricJTJobsSucceeded),
		jobsFailed:        r.Counter(MetricJTJobsFailed),
		speculativeLaunch: r.Counter(MetricJTSpeculativeLaunch),
		attemptsKilled:    r.Counter(MetricJTAttemptsKilled),
		trackerLosses:     r.Counter(MetricJTTrackerLosses),
		schedulePasses:    r.Counter(MetricJTSchedulePasses),
		shuffleBytes:      r.Counter(MetricJTShuffleBytes),
		inputDecodedBytes: r.Counter(MetricJTInputDecodedBytes),
		outputFileBytes:   r.Counter(MetricJTOutputFileBytes),
		shuffleTime:       r.Histogram(MetricShuffleTime),

		historyEvents:         r.Counter(history.MetricJobEvents),
		historyFilesPersisted: r.Counter(history.MetricFilesPersisted),
		historyBytesPersisted: r.Counter(history.MetricBytesPersisted),
		tracesPersisted:       r.Counter(MetricJTTracesPersisted),
	}
}
