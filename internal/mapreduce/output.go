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
}

// NewOutputWriter builds the writer for one reduce partition of job, over
// a buffer of its own.
func NewOutputWriter(job *Job) (*OutputWriter, error) {
	return new(ReduceScratch).NewOutputWriter(job)
}

// NewOutputWriter builds the writer for the scratch's next task: it
// encodes into the scratch's part buffer, emptied first.
func (s *ReduceScratch) NewOutputWriter(job *Job) (*OutputWriter, error) {
	codec, err := iofmt.ByName(job.OutputCodec)
	if err != nil {
		return nil, err
	}
	s.part.Reset()
	w := &OutputWriter{codec: codec, buf: &s.part}
	if job.outputFormat() == OutputFormatSeq {
		sw, err := iofmt.NewSeqWriter(w.buf, iofmt.SeqWriterOptions{Codec: codec})
		if err != nil {
			return nil, err
		}
		w.seq = sw
	}
	return w, nil
}

// WriteRecord adds one reduce output record.
func (w *OutputWriter) WriteRecord(key, val string) error {
	if w.seq != nil {
		return w.seq.AppendString(key, val)
	}
	w.buf.Grow(len(key) + len(val) + 2)
	w.buf.WriteString(key)
	w.buf.WriteByte('\t')
	w.buf.WriteString(val)
	w.buf.WriteByte('\n')
	return nil
}

// Finish closes the container and returns the encoded part file bytes.
// Uncompressed text and SequenceFile parts are the writer's buffer itself:
// on a ReduceScratch's writer they belong to the scratch until its next
// task starts.
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
