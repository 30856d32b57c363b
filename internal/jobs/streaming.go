package jobs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"

	"repro/internal/mapreduce"
)

// Hadoop Streaming: map and reduce as external commands wired through
// pipes, the path students who preferred scripting to Java used. The
// command receives input lines on stdin and must print
// "key<TAB>value" lines on stdout; reducers receive the sorted
// "key<TAB>value" stream exactly as Hadoop streaming delivers it.

// streamCmd runs one command over the given input lines and returns its
// stdout lines.
func streamCmd(argv []string, input func(w io.Writer) error) ([]string, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("jobs: empty streaming command")
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("jobs: starting %q: %w", argv[0], err)
	}
	writeErr := make(chan error, 1)
	go func() {
		err := input(stdin)
		stdin.Close()
		writeErr <- err
	}()
	var lines []string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("jobs: %q failed: %w", strings.Join(argv, " "), err)
	}
	// A command may exit without reading all its input (`head -n 1`): the
	// writer then sees EPIPE, or os.ErrClosed once Wait has closed the
	// pipe, and the exit status alone decides.
	if err := <-writeErr; err != nil && !errors.Is(err, syscall.EPIPE) && !errors.Is(err, os.ErrClosed) {
		return nil, err
	}
	return lines, scanErr
}

// streamingMapper batches a task's input lines through one process
// invocation (Hadoop starts one process per task, not per record).
type streamingMapper struct {
	argv  []string
	lines []string
}

func (m *streamingMapper) Map(ctx *mapreduce.TaskContext, off int64, line string, out mapreduce.Emitter) error {
	m.lines = append(m.lines, line)
	return nil
}

func (m *streamingMapper) Close(ctx *mapreduce.TaskContext, out mapreduce.Emitter) error {
	outLines, err := streamCmd(m.argv, func(w io.Writer) error {
		for _, l := range m.lines {
			if _, err := io.WriteString(w, l+"\n"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, l := range outLines {
		key, value, found := strings.Cut(l, "\t")
		if !found {
			value = "" // keys without values are legal in streaming
		}
		if err := out.Emit(key, mapreduce.Text(value)); err != nil {
			return err
		}
	}
	return nil
}

// streamingReducer feeds each whole reduce task's sorted key/value stream
// through one process, buffering groups until Close (one process per
// reduce task, as in Hadoop streaming).
type streamingReducer struct {
	argv  []string
	lines []string
}

func (r *streamingReducer) Reduce(ctx *mapreduce.TaskContext, key string, values *mapreduce.Values, out mapreduce.Emitter) error {
	for b, ok := values.NextBytes(); ok; b, ok = values.NextBytes() {
		r.lines = append(r.lines, key+"\t"+string(b))
	}
	return nil
}

func (r *streamingReducer) Close(ctx *mapreduce.TaskContext, out mapreduce.Emitter) error {
	outLines, err := streamCmd(r.argv, func(w io.Writer) error {
		for _, l := range r.lines {
			if _, err := io.WriteString(w, l+"\n"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, l := range outLines {
		key, value, _ := strings.Cut(l, "\t")
		if err := out.Emit(key, mapreduce.Text(value)); err != nil {
			return err
		}
	}
	return nil
}

// Streaming builds a job whose mapper and reducer are external commands,
// e.g.
//
//	Streaming(in, out, []string{"/bin/sh", "-c", "tr ' ' '\n' | sed 's/$/\t1/'"},
//	                  []string{"/usr/bin/awk", "-F\t", "{s[$1]+=$2} END {for (k in s) print k\"\t\"s[k]}"})
func Streaming(input, output string, mapperCmd, reducerCmd []string) *mapreduce.Job {
	return &mapreduce.Job{
		Name:        "streaming",
		NewMapper:   func() mapreduce.Mapper { return &streamingMapper{argv: mapperCmd} },
		NewReducer:  func() mapreduce.Reducer { return &streamingReducer{argv: reducerCmd} },
		DecodeValue: mapreduce.DecodeText,
		InputPaths:  []string{input},
		OutputPath:  output,
	}
}
