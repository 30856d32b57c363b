// Package shell implements the `hadoop fs` command set the paper's second
// assignment has students execute and record "to observe how HDFS
// transforms, stores, replicates, and abstracts the actual data": -ls,
// -put, -get/-copyToLocal, -cat, -tail, -rm/-rmr, -mkdir, -mv, -du,
// -count, -stat, -setrep, plus fsck and -locations for block-level
// inspection. It works over any vfs.FileSystem; the HDFS-specific
// commands light up when the target implements the corresponding
// interfaces.
package shell

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/hdfs"
	"repro/internal/iofmt"
	"repro/internal/vfs"
)

// Shell executes fs commands against a target filesystem, with a local
// filesystem as the other side of -put / -get transfers.
type Shell struct {
	// FS is the target (typically the HDFS client; any vfs works).
	FS vfs.FileSystem
	// Local is the source/destination for -put, -get and -copyToLocal.
	Local vfs.FileSystem
	// Out receives command output.
	Out io.Writer
	// User appears in listings (the course used individual accounts).
	User string
}

// replicator is implemented by filesystems supporting -setrep.
type replicator interface {
	SetReplication(path string, repl int) error
}

// auditor is implemented by filesystems supporting fsck, with or without
// the -blocks/-locations detail flags.
type auditor interface {
	FsckWith(path string, opts hdfs.FsckOpts) (*hdfs.FsckReport, error)
}

// locator is implemented by filesystems exposing block locations.
type locator interface {
	BlockLocations(path string) ([]hdfs.BlockLocation, error)
}

// ErrUsage reports a malformed command line.
var ErrUsage = errors.New("shell: usage error")

func usage(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUsage, fmt.Sprintf(format, args...))
}

// Run executes one command, e.g. Run("-ls", "/data").
func (s *Shell) Run(args ...string) error {
	if len(args) == 0 {
		return usage("empty command")
	}
	if s.User == "" {
		s.User = "student"
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "-ls":
		return s.ls(rest, false)
	case "-lsr":
		return s.ls(rest, true)
	case "-mkdir":
		return s.each(rest, 1, s.FS.Mkdir)
	case "-cat":
		return s.each(rest, 1, s.cat)
	case "-text":
		return s.each(rest, 1, s.text)
	case "-tail":
		return s.each(rest, 1, s.tail)
	case "-rm":
		return s.each(rest, 1, func(p string) error { return s.FS.Remove(p, false) })
	case "-rmr":
		return s.each(rest, 1, func(p string) error { return s.FS.Remove(p, true) })
	case "-put", "-copyFromLocal":
		return s.transfer(rest, s.Local, s.FS)
	case "-get", "-copyToLocal":
		return s.transfer(rest, s.FS, s.Local)
	case "-mv":
		if len(rest) != 2 {
			return usage("-mv <src> <dst>")
		}
		return s.FS.Rename(rest[0], rest[1])
	case "-du":
		return s.du(rest)
	case "-count":
		return s.count(rest)
	case "-stat":
		return s.each(rest, 1, s.stat)
	case "-setrep":
		return s.setrep(rest)
	case "-locations":
		return s.each(rest, 1, s.locations)
	case "-fsck", "fsck":
		return s.fsck(rest)
	case "-help":
		return s.help()
	default:
		return usage("unknown command %q (try -help)", cmd)
	}
}

// RunScript executes newline-separated commands ("fs -ls /" prefixes and
// blank/comment lines allowed), stopping at the first error.
func (s *Shell) RunScript(script string) error {
	for _, line := range strings.Split(script, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		for len(fields) > 0 && (fields[0] == "hadoop" || fields[0] == "fs") {
			fields = fields[1:]
		}
		fmt.Fprintf(s.Out, "$ hadoop fs %s\n", strings.Join(fields, " "))
		if err := s.Run(fields...); err != nil {
			return fmt.Errorf("shell: %q: %w", line, err)
		}
	}
	return nil
}

func (s *Shell) each(args []string, min int, fn func(string) error) error {
	if len(args) < min {
		return usage("expected at least %d path(s)", min)
	}
	for _, p := range args {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

func (s *Shell) formatEntry(fi vfs.FileInfo) string {
	mode := "-rw-r--r--"
	repl := "-"
	if fi.IsDir {
		mode = "drwxr-xr-x"
	} else if fi.Replication > 0 {
		repl = strconv.Itoa(fi.Replication)
	}
	return fmt.Sprintf("%s %3s %-8s supergroup %12d %s", mode, repl, s.User, fi.Size, fi.Path)
}

func (s *Shell) ls(args []string, recursive bool) error {
	if len(args) == 0 {
		args = []string{"/"}
	}
	for _, p := range args {
		fi, err := s.FS.Stat(p)
		if err != nil {
			return err
		}
		if !fi.IsDir {
			fmt.Fprintln(s.Out, s.formatEntry(fi))
			continue
		}
		entries, err := s.listAll(p, recursive)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.Out, "Found %d items\n", len(entries))
		for _, e := range entries {
			fmt.Fprintln(s.Out, s.formatEntry(e))
		}
	}
	return nil
}

func (s *Shell) listAll(p string, recursive bool) ([]vfs.FileInfo, error) {
	entries, err := s.FS.List(p)
	if err != nil {
		return nil, err
	}
	if !recursive {
		return entries, nil
	}
	var out []vfs.FileInfo
	for _, e := range entries {
		out = append(out, e)
		if e.IsDir {
			sub, err := s.listAll(e.Path, true)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
	}
	return out, nil
}

func (s *Shell) cat(p string) error {
	data, err := vfs.ReadFile(s.FS, p)
	if err != nil {
		return err
	}
	_, err = s.Out.Write(data)
	return err
}

// text is the codec- and container-aware -cat: compressed files are
// inflated and SequenceFiles render one "key<TAB>value" line per record,
// exactly Hadoop's `fs -text`.
func (s *Shell) text(p string) error {
	data, err := vfs.ReadFile(s.FS, p)
	if err != nil {
		return err
	}
	out, err := iofmt.DecodeToText(p, data)
	if err != nil {
		return fmt.Errorf("shell: -text %s: %w", p, err)
	}
	_, err = s.Out.Write(out)
	return err
}

func (s *Shell) tail(p string) error {
	data, err := vfs.ReadFile(s.FS, p)
	if err != nil {
		return err
	}
	const kb = 1024
	if len(data) > kb {
		data = data[len(data)-kb:]
	}
	_, err = s.Out.Write(data)
	return err
}

func (s *Shell) transfer(args []string, from, to vfs.FileSystem) error {
	if len(args) != 2 {
		return usage("expected <src> <dst>")
	}
	if from == nil || to == nil {
		return usage("no local filesystem configured")
	}
	n, err := vfs.CopyTree(from, args[0], to, args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(s.Out, "copied %d bytes: %s -> %s\n", n, args[0], args[1])
	return nil
}

func (s *Shell) du(args []string) error {
	if len(args) == 0 {
		args = []string{"/"}
	}
	for _, p := range args {
		entries, err := s.FS.List(p)
		if err != nil {
			// -du of a plain file prints its size.
			fi, serr := s.FS.Stat(p)
			if serr != nil {
				return err
			}
			fmt.Fprintf(s.Out, "%-12d %s\n", fi.Size, fi.Path)
			continue
		}
		for _, e := range entries {
			size := e.Size
			if e.IsDir {
				if du, err := vfs.DiskUsage(s.FS, e.Path); err == nil {
					size = du
				}
			}
			fmt.Fprintf(s.Out, "%-12d %s\n", size, e.Path)
		}
	}
	return nil
}

func (s *Shell) count(args []string) error {
	if len(args) == 0 {
		args = []string{"/"}
	}
	for _, p := range args {
		var dirs, files, bytes int64
		err := vfs.Walk(s.FS, p, func(fi vfs.FileInfo) error {
			files++
			bytes += fi.Size
			return nil
		})
		if err != nil {
			return err
		}
		// Count directories separately.
		var walkDirs func(string) error
		walkDirs = func(dp string) error {
			fi, err := s.FS.Stat(dp)
			if err != nil || !fi.IsDir {
				return err
			}
			dirs++
			children, err := s.FS.List(dp)
			if err != nil {
				return err
			}
			for _, c := range children {
				if c.IsDir {
					if err := walkDirs(c.Path); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := walkDirs(p); err != nil {
			return err
		}
		fmt.Fprintf(s.Out, "%12d %12d %12d %s\n", dirs, files, bytes, vfs.Clean(p))
	}
	return nil
}

func (s *Shell) stat(p string) error {
	fi, err := s.FS.Stat(p)
	if err != nil {
		return err
	}
	kind := "regular file"
	if fi.IsDir {
		kind = "directory"
	}
	fmt.Fprintf(s.Out, "%s: %s, %d bytes, replication %d, block size %d\n",
		fi.Path, kind, fi.Size, fi.Replication, fi.BlockSize)
	return nil
}

func (s *Shell) setrep(args []string) error {
	if len(args) != 2 {
		return usage("-setrep <replication> <path>")
	}
	r, ok := s.FS.(replicator)
	if !ok {
		return fmt.Errorf("shell: target filesystem does not support replication")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		return usage("bad replication %q", args[0])
	}
	if err := r.SetReplication(args[1], n); err != nil {
		return err
	}
	fmt.Fprintf(s.Out, "Replication %d set: %s\n", n, args[1])
	return nil
}

func (s *Shell) locations(p string) error {
	l, ok := s.FS.(locator)
	if !ok {
		return fmt.Errorf("shell: target filesystem has no block locations")
	}
	locs, err := l.BlockLocations(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.Out, "%s: %d block(s)\n", p, len(locs))
	for _, loc := range locs {
		fmt.Fprintf(s.Out, "  %v len=%d offset=%d hosts=%s\n",
			loc.Block, loc.Length, loc.Offset, strings.Join(loc.Hosts, ","))
	}
	return nil
}

func (s *Shell) fsck(args []string) error {
	a, ok := s.FS.(auditor)
	if !ok {
		return fmt.Errorf("shell: target filesystem has no fsck")
	}
	p := "/"
	var opts hdfs.FsckOpts
	for _, arg := range args {
		switch arg {
		case "-blocks":
			opts.Blocks = true
		case "-locations":
			opts.Locations = true
		default:
			if strings.HasPrefix(arg, "-") {
				return usage("-fsck: unknown flag %s", arg)
			}
			p = arg
		}
	}
	rep, err := a.FsckWith(p, opts)
	if err != nil {
		return err
	}
	_, err = io.WriteString(s.Out, rep.String())
	return err
}

func (s *Shell) help() error {
	fmt.Fprint(s.Out, `Usage: hadoop fs <command>
  -ls <path>            list directory
  -lsr <path>           list recursively
  -mkdir <path>         create directory (and parents)
  -put <local> <dfs>    copy from local filesystem (alias -copyFromLocal)
  -get <dfs> <local>    copy to local filesystem (alias -copyToLocal)
  -cat <path>           print file contents
  -text <path>          print file contents, decoding codecs and SequenceFiles
  -tail <path>          print last 1KB of a file
  -mv <src> <dst>       rename / move
  -rm <path>            delete a file
  -rmr <path>           delete recursively
  -du <path>            per-entry disk usage
  -count <path>         dirs / files / bytes
  -stat <path>          file metadata
  -setrep <n> <path>    change replication factor
  -locations <path>     block locations (HDFS)
  -fsck [path] [-blocks] [-locations]
                        filesystem audit (HDFS); -blocks lists block IDs,
                        -locations adds replica hosts
`)
	return nil
}
