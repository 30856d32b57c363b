package hdfs

import (
	"fmt"
	"strings"

	"repro/internal/vfs"
)

// FsckOpts selects optional detail sections, mirroring the flags of
// `hadoop fsck`: -blocks lists each file's block IDs, -locations adds
// the DataNode hosts of every live replica (and implies -blocks).
type FsckOpts struct {
	Blocks    bool
	Locations bool
}

// BlockDetail is one block row of the -blocks/-locations detail output.
type BlockDetail struct {
	Block  BlockID
	Length int64
	// Hosts are the usable replica holders' hostnames, sorted by node ID;
	// filled only with FsckOpts.Locations.
	Hosts []string
}

// FileFsck is the per-file section of an fsck report.
type FileFsck struct {
	Path            string
	Size            int64
	Blocks          int
	Expected        int
	UnderReplicated int
	MissingBlocks   int
	CorruptReplicas int
	// BlockDetails is filled only when fsck ran with -blocks/-locations.
	BlockDetails []BlockDetail
}

// FsckReport mirrors the output of `hadoop fsck /` that the paper's second
// assignment had students run and record.
type FsckReport struct {
	Path                 string
	TotalFiles           int
	TotalBlocks          int
	TotalBytes           int64
	MinReplication       int
	UnderReplicated      int
	OverReplicated       int
	MissingBlocks        int
	CorruptReplicas      int
	LiveDataNodes        int
	DefaultReplication   int
	AvgReplicationFactor float64
	Files                []FileFsck
	// Opts records which detail sections the report carries.
	Opts FsckOpts
}

// Healthy reports whether the filesystem has no missing blocks (the
// condition under which HDFS refuses to serve the data at all).
func (r *FsckReport) Healthy() bool { return r.MissingBlocks == 0 }

// Status returns the HDFS-style one-word verdict.
func (r *FsckReport) Status() string {
	if r.Healthy() {
		return "HEALTHY"
	}
	return "CORRUPT"
}

// String renders the report in the familiar fsck layout.
func (r *FsckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FSCK started for path %s\n", r.Path)
	for _, f := range r.Files {
		if r.Opts.Blocks || r.Opts.Locations {
			fmt.Fprintf(&b, "%s %d bytes, %d block(s):\n", f.Path, f.Size, f.Blocks)
			for i, bd := range f.BlockDetails {
				fmt.Fprintf(&b, "  %d. %v len=%d", i, bd.Block, bd.Length)
				if r.Opts.Locations {
					fmt.Fprintf(&b, " [%s]", strings.Join(bd.Hosts, ", "))
				}
				b.WriteByte('\n')
			}
		}
		if f.UnderReplicated > 0 || f.MissingBlocks > 0 || f.CorruptReplicas > 0 {
			fmt.Fprintf(&b, "%s %d bytes, %d block(s): ", f.Path, f.Size, f.Blocks)
			switch {
			case f.MissingBlocks > 0:
				fmt.Fprintf(&b, "MISSING %d blocks!\n", f.MissingBlocks)
			case f.UnderReplicated > 0:
				fmt.Fprintf(&b, "Under replicated (%d block(s) below target %d)\n", f.UnderReplicated, f.Expected)
			default:
				fmt.Fprintf(&b, "%d corrupt replica(s)\n", f.CorruptReplicas)
			}
		}
	}
	fmt.Fprintf(&b, " Total size:\t%d B\n", r.TotalBytes)
	fmt.Fprintf(&b, " Total files:\t%d\n", r.TotalFiles)
	fmt.Fprintf(&b, " Total blocks:\t%d\n", r.TotalBlocks)
	fmt.Fprintf(&b, " Minimally replicated blocks:\t%d\n", r.TotalBlocks-r.MissingBlocks)
	fmt.Fprintf(&b, " Under-replicated blocks:\t%d\n", r.UnderReplicated)
	fmt.Fprintf(&b, " Over-replicated blocks:\t%d\n", r.OverReplicated)
	fmt.Fprintf(&b, " Missing blocks:\t%d\n", r.MissingBlocks)
	fmt.Fprintf(&b, " Corrupt replicas:\t%d\n", r.CorruptReplicas)
	fmt.Fprintf(&b, " Default replication factor:\t%d\n", r.DefaultReplication)
	fmt.Fprintf(&b, " Average block replication:\t%.2f\n", r.AvgReplicationFactor)
	fmt.Fprintf(&b, " Number of live data-nodes:\t%d\n", r.LiveDataNodes)
	fmt.Fprintf(&b, "The filesystem under path '%s' is %s\n", r.Path, r.Status())
	return b.String()
}

// Fsck audits the subtree at path, counting replica health block by block.
func (nn *NameNode) Fsck(path string) (*FsckReport, error) {
	return nn.FsckWith(path, FsckOpts{})
}

// FsckWith audits the subtree at path with optional -blocks/-locations
// detail sections.
func (nn *NameNode) FsckWith(path string, opts FsckOpts) (*FsckReport, error) {
	if opts.Locations {
		opts.Blocks = true
	}
	start := nn.ns.lookup(path)
	if start == nil {
		return nil, &vfs.PathError{Op: "fsck", Path: path, Err: vfs.ErrNotExist}
	}
	rep := &FsckReport{
		Path:               vfs.Clean(path),
		DefaultReplication: nn.cfg.Replication,
		LiveDataNodes:      len(nn.LiveDataNodes()),
		Opts:               opts,
	}
	var replicaSum int64
	nn.ns.walkFiles(start, rep.Path, func(p string, f *inode) {
		ff := FileFsck{Path: p, Size: f.size, Blocks: len(f.blocks), Expected: f.repl}
		for _, bid := range f.blocks {
			bm, ok := nn.blocks[bid]
			if !ok {
				ff.MissingBlocks++
				if opts.Blocks {
					ff.BlockDetails = append(ff.BlockDetails, BlockDetail{Block: bid})
				}
				continue
			}
			live := nn.liveReplicas(bm)
			replicaSum += int64(live)
			switch {
			case live == 0:
				ff.MissingBlocks++
			case live < bm.expected:
				ff.UnderReplicated++
			case live > bm.expected:
				rep.OverReplicated++
			}
			ff.CorruptReplicas += len(bm.corrupt)
			if opts.Blocks {
				bd := BlockDetail{Block: bid, Length: bm.len}
				if opts.Locations {
					for _, id := range nn.usableReplicas(bm) {
						bd.Hosts = append(bd.Hosts, nn.hostname(id))
					}
				}
				ff.BlockDetails = append(ff.BlockDetails, bd)
			}
		}
		rep.TotalFiles++
		rep.TotalBlocks += len(f.blocks)
		rep.TotalBytes += f.size
		rep.UnderReplicated += ff.UnderReplicated
		rep.MissingBlocks += ff.MissingBlocks
		rep.CorruptReplicas += ff.CorruptReplicas
		rep.Files = append(rep.Files, ff)
	})
	if rep.TotalBlocks > 0 {
		rep.AvgReplicationFactor = float64(replicaSum) / float64(rep.TotalBlocks)
	}
	return rep, nil
}
