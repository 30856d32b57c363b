package dirty

import (
	"repro/internal/vfs"
)

// saveMeta is commit-critical by propagation: it returns the error of a
// durability sink (vfs.WriteFile). Dropping its error anywhere is a
// lost acked write.
func saveMeta(fs vfs.FileSystem, data []byte) error {
	return vfs.WriteFile(fs, "/meta", data)
}

func commitDropped(fs vfs.FileSystem, data []byte) {
	vfs.WriteFile(fs, "/wal", data)  // want: commiterr
	_ = saveMeta(fs, data)           // want: commiterr
	defer saveMeta(fs, data)         // want: commiterr
	go saveMeta(fs, data)            // want: commiterr
	vfs.AppendFile(fs, "/wal", data) // want: commiterr
}

// cleanupOnError drops a secondary commit error inside a branch guarded
// by err != nil: the cleanup-after-failure idiom, which is exempt — the
// original error is already on its way to the caller.
func cleanupOnError(fs vfs.FileSystem, data []byte) error {
	if err := saveMeta(fs, data); err != nil {
		_ = vfs.WriteFile(fs, "/meta.bak", data)
		return err
	}
	return nil
}
