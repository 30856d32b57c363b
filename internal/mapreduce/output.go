package mapreduce

import (
	"bytes"

	"repro/internal/iofmt"
)

// Output formats a Job may declare.
const (
	// OutputFormatText writes the classic "key<TAB>value" lines
	// (the default).
	OutputFormatText = "text"
	// OutputFormatSeq writes SequenceFiles whose records keep key and
	// value separate — what chained jobs read back without re-parsing,
	// and what stays splittable even when compressed.
	OutputFormatSeq = "seq"
)

// OutputStats meters one finished output part.
type OutputStats struct {
	// RawBytes is the logical output volume before compression.
	RawBytes int64
	// FileBytes is what actually lands on storage.
	FileBytes int64
}

// OutputWriter buffers one reduce partition's records and encodes them
// in the job's declared output format and codec. Both runtimes commit
// parts through it, so a format change never forks their behaviour.
type OutputWriter struct {
	codec iofmt.Codec
	buf   *bytes.Buffer // the text records, or the SequenceFile under seq
	seq   *iofmt.SeqWriter
	key   *[]byte // the scratch's buffer for a key framed with a []byte value under seq
}

// NewOutputWriter builds the writer for one reduce partition of job, over
// a buffer of its own.
func NewOutputWriter(job *Job) (*OutputWriter, error) {
	return new(ReduceScratch).NewOutputWriter(job)
}

// NewOutputWriter builds the writer for the scratch's next task: it
// encodes into the scratch's part buffer, emptied first.
func (s *ReduceScratch) NewOutputWriter(job *Job) (*OutputWriter, error) {
	s.part.Reset()
	return s.writerOver(job, &s.part)
}

// NewOwnedOutputWriter builds the writer for the scratch's next task over
// a buffer of its own, so the part Finish returns belongs to the caller
// alone and outlives the scratch's next task. The buffer is presized for
// runs reduced one record per pair as text, every pair's bytes plus a tab
// and a newline: exact for an identity reduce, when it is the part's one
// allocation.
func (s *ReduceScratch) NewOwnedOutputWriter(job *Job, runs [][]Pair) (*OutputWriter, error) {
	size := 0
	for _, run := range runs {
		for _, p := range run {
			size += len(p.Key) + len(p.Val) + 2
		}
	}
	return s.writerOver(job, bytes.NewBuffer(make([]byte, 0, size)))
}

// writerOver builds a writer for job that encodes into buf.
func (s *ReduceScratch) writerOver(job *Job, buf *bytes.Buffer) (*OutputWriter, error) {
	codec, err := iofmt.ByName(job.OutputCodec)
	if err != nil {
		return nil, err
	}
	w := &OutputWriter{codec: codec, buf: buf, key: &s.key}
	if job.outputFormat() == OutputFormatSeq {
		sw, err := iofmt.NewSeqWriter(w.buf, iofmt.SeqWriterOptions{Codec: codec})
		if err != nil {
			return nil, err
		}
		w.seq = sw
	}
	return w, nil
}

// writeRecord adds one reduce output record, its value held as a string
// or as bytes: the writer's one record encoder.
func writeRecord[V string | []byte](w *OutputWriter, key string, val V) error {
	if w.seq != nil {
		if v, ok := any(val).(string); ok {
			return w.seq.AppendString(key, v)
		}
		// The value is framed straight from its bytes; only the key is
		// copied, into a buffer the scratch keeps from task to task.
		*w.key = append((*w.key)[:0], key...)
		return w.seq.Append(*w.key, []byte(val))
	}
	w.buf.Grow(len(key) + len(val) + 2)
	line := append(w.buf.AvailableBuffer(), key...)
	line = append(line, '\t')
	line = append(line, val...)
	w.buf.Write(append(line, '\n'))
	return nil
}

// Finish closes the container and returns the encoded part file bytes.
// Uncompressed text and SequenceFile parts are the writer's buffer itself:
// on a ReduceScratch's NewOutputWriter they belong to the scratch until
// its next task starts.
func (w *OutputWriter) Finish() ([]byte, OutputStats, error) {
	if w.seq != nil {
		if err := w.seq.Close(); err != nil {
			return nil, OutputStats{}, err
		}
		return w.buf.Bytes(), OutputStats{
			RawBytes:  w.seq.RawBytes,
			FileBytes: int64(w.buf.Len()),
		}, nil
	}
	raw := w.buf.Bytes()
	if w.codec == nil {
		n := int64(len(raw))
		return raw, OutputStats{RawBytes: n, FileBytes: n}, nil
	}
	enc, err := w.codec.Compress(raw)
	if err != nil {
		return nil, OutputStats{}, err
	}
	return enc, OutputStats{RawBytes: int64(len(raw)), FileBytes: int64(len(enc))}, nil
}
