package mrcluster

import (
	"repro/internal/history"
	"repro/internal/obs"
)

// Names other packages and tests read; every other MapReduce name is
// written once, where it is registered or recorded (docs/OBSERVABILITY.md).
const (
	MetricJTMapsLaunched    = "mr.jt.maps_launched"
	MetricJTReducesLaunched = "mr.jt.reduces_launched"
	MetricJTAttemptsKilled  = "mr.jt.attempts_killed"
	MetricJTSchedulePasses  = "mr.jt.schedule_passes"
	MetricJTMapsDataLocal   = "mr.jt.maps_data_local"
	MetricJTMapsRackLocal   = "mr.jt.maps_rack_local"
	MetricJTMapsRemote      = "mr.jt.maps_remote"

	// Span names.
	SpanMapAttempt    = "mr.map_attempt"
	SpanReduceAttempt = "mr.reduce_attempt"
	SpanJob           = "mr.job"
	SpanTask          = "mr.task"
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
		jobsSubmitted:     r.Counter("mr.jt.jobs_submitted"),
		jobsSucceeded:     r.Counter("mr.jt.jobs_succeeded"),
		jobsFailed:        r.Counter("mr.jt.jobs_failed"),
		speculativeLaunch: r.Counter("mr.jt.speculative_launched"),
		attemptsKilled:    r.Counter(MetricJTAttemptsKilled),
		trackerLosses:     r.Counter("mr.jt.tracker_losses"),
		schedulePasses:    r.Counter(MetricJTSchedulePasses),
		shuffleBytes:      r.Counter("mr.jt.shuffle_bytes"),
		inputDecodedBytes: r.Counter("mr.jt.input_decoded_bytes"),
		outputFileBytes:   r.Counter("mr.jt.output_file_bytes"),
		shuffleTime:       r.Histogram("mr.shuffle_time"),

		historyEvents:         r.Counter(history.MetricJobEvents),
		historyFilesPersisted: r.Counter(history.MetricFilesPersisted),
		historyBytesPersisted: r.Counter(history.MetricBytesPersisted),
		tracesPersisted:       r.Counter("mr.jt.traces_persisted"),
	}
}
