//go:build !linux

package seglog

import (
	"errors"
	"os"
)

// syncFile forces the file to stable storage. The portable fallback is a
// full fsync.
func syncFile(f *os.File) error {
	return f.Sync()
}

// errNoPrealloc tells the log that this platform cannot preallocate; it
// disables preallocation for the life of the log and appends grow the file
// the ordinary way.
var errNoPrealloc = errors.New("seglog: preallocation unsupported")

// allocateFile is unsupported off linux.
func allocateFile(*os.File, int64, int64) error {
	return errNoPrealloc
}
