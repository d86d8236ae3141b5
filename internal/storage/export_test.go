package storage

import (
	"os"

	"repro/internal/seglog"
)

// openAppend opens path for appending, for tests that simulate torn writes.
func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// walSegName is the file name of the WAL segment based at LSN base.
func walSegName(base uint64) string { return seglog.SegName(base, walSegExt) }

// SegmentCounts reports the WAL's sealed and archived segment counts.
func (w *WAL) SegmentCounts() (sealed, archived int) {
	a, s := w.Segments()
	return len(s), len(a)
}
