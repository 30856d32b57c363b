package hdfs

import "repro/internal/obs"

// Names other packages and tests read; every other HDFS name is written
// once, where it is registered or recorded (docs/OBSERVABILITY.md).
const (
	// NameNode (control plane).
	MetricNNDataNodesDeclaredDead = "hdfs.nn.datanodes_declared_dead"
	MetricNNHeartbeats            = "hdfs.nn.heartbeats"

	// DataNodes (aggregate across all nodes; spans carry per-node detail).
	MetricDNBlocksWritten    = "hdfs.dn.blocks_written"
	MetricDNBytesWritten     = "hdfs.dn.bytes_written"
	MetricDNChecksumFailures = "hdfs.dn.checksum_failures"

	// Clients (data plane, locality hit/miss).
	MetricClientReadsLocal  = "hdfs.client.reads_local"
	MetricClientReadsRack   = "hdfs.client.reads_rack"
	MetricClientReadsRemote = "hdfs.client.reads_remote"
)

// nnMetrics holds the NameNode's interned metric handles so the hot
// paths never touch the registry map.
type nnMetrics struct {
	blocksAllocated       *obs.Counter
	replicationsScheduled *obs.Counter
	replicationsCompleted *obs.Counter
	corruptionsDetected   *obs.Counter
	excessReplicasDropped *obs.Counter
	datanodesDeclaredDead *obs.Counter
	registrations         *obs.Counter
	heartbeats            *obs.Counter
	blockReports          *obs.Counter
	editLogRecords        *obs.Counter
	checkpoints           *obs.Counter
	safeMode              *obs.Gauge
	safeModeExits         *obs.Counter
	safeModeExitedAt      *obs.Gauge
	heartbeatGap          *obs.Histogram
}

func newNNMetrics(r *obs.Registry) nnMetrics {
	return nnMetrics{
		blocksAllocated:       r.Counter("hdfs.nn.blocks_allocated"),
		replicationsScheduled: r.Counter("hdfs.nn.replications_scheduled"),
		replicationsCompleted: r.Counter("hdfs.nn.replications_completed"),
		corruptionsDetected:   r.Counter("hdfs.nn.corruptions_detected"),
		excessReplicasDropped: r.Counter("hdfs.nn.excess_replicas_dropped"),
		datanodesDeclaredDead: r.Counter(MetricNNDataNodesDeclaredDead),
		registrations:         r.Counter("hdfs.nn.registrations"),
		heartbeats:            r.Counter(MetricNNHeartbeats),
		blockReports:          r.Counter("hdfs.nn.block_reports"),
		editLogRecords:        r.Counter("hdfs.nn.editlog_records"),
		checkpoints:           r.Counter("hdfs.nn.checkpoints"),
		safeMode:              r.Gauge("hdfs.nn.safemode"),
		safeModeExits:         r.Counter("hdfs.nn.safemode_exits"),
		safeModeExitedAt:      r.Gauge("hdfs.nn.safemode_exited_at_ns"),
		heartbeatGap:          r.Histogram("hdfs.nn.heartbeat_gap"),
	}
}

// dnMetrics aggregates data-plane activity across every DataNode; all
// DataNodes of a cluster share one bundle.
type dnMetrics struct {
	heartbeatsSent   *obs.Counter
	blockReportsSent *obs.Counter
	blocksWritten    *obs.Counter
	bytesWritten     *obs.Counter
	blocksRead       *obs.Counter
	bytesRead        *obs.Counter
	blocksDeleted    *obs.Counter
	checksumFailures *obs.Counter
	diskReadTime     *obs.Histogram
	diskWriteTime    *obs.Histogram
}

func newDNMetrics(r *obs.Registry) *dnMetrics {
	return &dnMetrics{
		heartbeatsSent:   r.Counter("hdfs.dn.heartbeats_sent"),
		blockReportsSent: r.Counter("hdfs.dn.block_reports_sent"),
		blocksWritten:    r.Counter(MetricDNBlocksWritten),
		bytesWritten:     r.Counter(MetricDNBytesWritten),
		blocksRead:       r.Counter("hdfs.dn.blocks_read"),
		bytesRead:        r.Counter("hdfs.dn.bytes_read"),
		blocksDeleted:    r.Counter("hdfs.dn.blocks_deleted"),
		checksumFailures: r.Counter(MetricDNChecksumFailures),
		diskReadTime:     r.Histogram("hdfs.dn.disk_read_time"),
		diskWriteTime:    r.Histogram("hdfs.dn.disk_write_time"),
	}
}

// clientMetrics aggregates HDFS client activity; every client of a
// cluster shares one bundle (clients are cheap per-call values).
type clientMetrics struct {
	readsLocal      *obs.Counter
	readsRack       *obs.Counter
	readsRemote     *obs.Counter
	bytesReadLocal  *obs.Counter
	bytesReadRack   *obs.Counter
	bytesReadRemote *obs.Counter
	bytesWritten    *obs.Counter
	pipelineWrites  *obs.Counter
	pipelineShrunk  *obs.Counter
	readRetries     *obs.Counter
	readBlockTime   *obs.Histogram
}

func newClientMetrics(r *obs.Registry) *clientMetrics {
	return &clientMetrics{
		readsLocal:      r.Counter(MetricClientReadsLocal),
		readsRack:       r.Counter(MetricClientReadsRack),
		readsRemote:     r.Counter(MetricClientReadsRemote),
		bytesReadLocal:  r.Counter("hdfs.client.bytes_read_local"),
		bytesReadRack:   r.Counter("hdfs.client.bytes_read_rack"),
		bytesReadRemote: r.Counter("hdfs.client.bytes_read_remote"),
		bytesWritten:    r.Counter("hdfs.client.bytes_written"),
		pipelineWrites:  r.Counter("hdfs.client.pipeline_writes"),
		pipelineShrunk:  r.Counter("hdfs.client.pipeline_shrunk"),
		readRetries:     r.Counter("hdfs.client.read_retries"),
		readBlockTime:   r.Histogram("hdfs.client.read_block_time"),
	}
}
