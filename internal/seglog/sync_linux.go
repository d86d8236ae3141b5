//go:build linux

package seglog

import (
	"os"
	"syscall"
)

// syncFile forces the file's data (and the metadata needed to read it back,
// i.e. the size) to stable storage. fdatasync skips the pure-bookkeeping
// metadata (mtime) that fsync would journal, which measurably cheapens the
// per-batch force on ext4; combined with preallocation the common case is a
// data-only flush with no journal commit at all.
func syncFile(f *os.File) error {
	return syscall.Fdatasync(int(f.Fd()))
}

// allocateFile reserves [off, off+n) on disk, extending the file size.
// Appends that land inside the reserved region change neither the size nor
// the extent tree, so the following fdatasync has no metadata to commit.
func allocateFile(f *os.File, off, n int64) error {
	return syscall.Fallocate(int(f.Fd()), 0, off, n)
}
