package mapreduce

import (
	"fmt"
	"sort"
	"strings"
)

// Standard counter names, mirroring the Hadoop job report the students
// read after each run ("observed through final MapReduce job report").
const (
	CtrMapInputRecords      = "MAP_INPUT_RECORDS"
	CtrMapInputBytes        = "MAP_INPUT_BYTES"
	CtrMapOutputRecords     = "MAP_OUTPUT_RECORDS"
	CtrMapOutputBytes       = "MAP_OUTPUT_BYTES"
	CtrCombineInputRecords  = "COMBINE_INPUT_RECORDS"
	CtrCombineOutputRecords = "COMBINE_OUTPUT_RECORDS"
	CtrReduceInputGroups    = "REDUCE_INPUT_GROUPS"
	CtrReduceInputRecords   = "REDUCE_INPUT_RECORDS"
	CtrReduceOutputRecords  = "REDUCE_OUTPUT_RECORDS"
	CtrShuffleBytes         = "SHUFFLE_BYTES"
	CtrSpilledRecords       = "SPILLED_RECORDS"
	// CtrInputDecodedBytes is the logical input volume after any codec
	// ran; with compressed inputs it exceeds the bytes read off storage.
	CtrInputDecodedBytes = "INPUT_DECODED_BYTES"
	// CtrOutputRawBytes is the logical reduce output before output
	// compression; the committed part files may be smaller.
	CtrOutputRawBytes = "OUTPUT_RAW_BYTES"

	CtrHDFSBytesRead     = "HDFS_BYTES_READ"
	CtrHDFSBytesWritten  = "HDFS_BYTES_WRITTEN"
	CtrFileBytesRead     = "FILE_BYTES_READ"
	CtrFileBytesWritten  = "FILE_BYTES_WRITTEN"
	CtrSideFileOpens     = "SIDE_FILE_OPENS"
	CtrSideFileBytesRead = "SIDE_FILE_BYTES_READ"

	CtrDataLocalMaps = "DATA_LOCAL_MAPS"
	CtrRackLocalMaps = "RACK_LOCAL_MAPS"
	CtrRemoteMaps    = "OTHER_LOCAL_MAPS"

	CtrLaunchedMaps       = "TOTAL_LAUNCHED_MAPS"
	CtrLaunchedReduces    = "TOTAL_LAUNCHED_REDUCES"
	CtrFailedMaps         = "FAILED_MAP_ATTEMPTS"
	CtrFailedReduces      = "FAILED_REDUCE_ATTEMPTS"
	CtrSpeculativeLaunch  = "SPECULATIVE_ATTEMPTS_LAUNCHED"
	CtrSpeculativeWon     = "SPECULATIVE_ATTEMPTS_WON"
	CtrMapperMemoryPeak   = "MAPPER_MEMORY_PEAK_BYTES"
	CtrReducerMemoryPeak  = "REDUCER_MEMORY_PEAK_BYTES"
	CtrTaskRetries        = "TASK_RETRIES"
	CtrKilledTaskAttempts = "KILLED_TASK_ATTEMPTS"
)

// Counters is a named set of int64 metrics. A Counters value is owned by a
// single task while it runs and merged into the job total afterwards, so
// no locking is needed on the hot path.
type Counters struct {
	m map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]int64)}
}

// Inc adds delta to the named counter.
func (c *Counters) Inc(name string, delta int64) {
	c.m[name] += delta
}

// Get returns the value of the named counter (zero if never set).
func (c *Counters) Get(name string) int64 { return c.m[name] }

// Max raises the named counter to v if v is larger (for peak metrics).
func (c *Counters) Max(name string, v int64) {
	if v > c.m[name] {
		c.m[name] = v
	}
}

// Merge adds every counter from other into c. Peak counters are merged by
// maximum; everything else by sum.
func (c *Counters) Merge(other *Counters) {
	for k, v := range other.m {
		if isPeakCounter(k) {
			c.Max(k, v)
		} else {
			c.m[k] += v
		}
	}
}

func isPeakCounter(name string) bool {
	return strings.HasSuffix(name, "_PEAK_BYTES")
}

// Names returns the counter names in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.m))
	for k := range c.m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// String renders the counters like the tail of a Hadoop job report.
func (c *Counters) String() string {
	var b strings.Builder
	for _, name := range c.Names() {
		fmt.Fprintf(&b, "    %s=%d\n", name, c.m[name])
	}
	return b.String()
}
