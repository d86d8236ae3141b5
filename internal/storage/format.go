package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/seglog"
)

// On-disk format versioning. The database file and the WAL are headerless
// (pages and log records start at byte zero, and LSNs are file offsets),
// so the format generation lives in a small marker file next to them
// instead of shifting every offset. Open refuses a data directory whose
// marker is missing-but-populated or from a different generation, with an
// error that names the mismatch — never a checksum/corruption report.
//
// History:
//
//	v1 — through the parallel-commit PR: 4-byte page slot entries, WAL
//	     record payloads without a TS field, no marker file.
//	v2 — MVCC snapshot reads: slot entries grew to 12 bytes to carry the
//	     creator/deleter version stamps, WAL payloads gained a u64 TS
//	     field, and the marker file was introduced.
//	v3 — WAL-shipping replication: the single sentinel.log became a wal/
//	     directory of sealed, CRC-manifested segments named by base LSN,
//	     with fuzzy-checkpoint state in wal/MANIFEST. Record framing is
//	     unchanged but a v2 log file is not discoverable by a v3 build.
//	v4 — objects off gob: heap object records, the name map and the index
//	     catalog (and the RecIdxCreate/RecIdxDrop payloads) are written
//	     with the tagged value codec of internal/event behind a one-byte
//	     record kind (object.KindObject … KindIndexCatalog), and the
//	     catalog meta record dropped its unused spare RID. Pages and WAL
//	     framing are unchanged; what changed is the bytes inside records.
//	     A v3 directory is refused, not migrated: there is no deployed v3
//	     data, and a gob reader kept for it would be a second decode path
//	     nothing exercises.
//	v5 — OID-valued attributes are keyed: the ordered index encoding
//	     places an event.OID among the numbers, where a v4 build could not
//	     key it and left its objects out of every index over that
//	     attribute. Records are unchanged, but a v4 index lacks those
//	     postings, so a v4 directory is refused, not migrated.
//	v6 — a top-level commit record carries its commit timestamp, and the
//	     separate commit-timestamp record (RecCommitTS, whose type number
//	     stays reserved) is no longer written. A v5 log restores its clock
//	     from those records and a v5 follower publishes by them, so a v5
//	     directory is refused, not migrated.
//	v7 — a follower repeats history: it stamps each page with the LSN of
//	     the operation it applied last, as the leader does, where a v6
//	     follower stamped the LSN of the commit record that published it
//	     and kept a follower mark beside its pages. A v6 follower's page
//	     LSNs would let redo skip operations that are not on the page, so
//	     a v6 directory is refused, not migrated.
const (
	formatMagic = "sentinel-format"
	// FormatVersion is the generation this build reads and writes.
	FormatVersion = 7
	// formatFile is the marker's filename inside the data directory.
	formatFile = "sentinel.meta"
)

// ErrIncompatibleFormat marks a data directory written by a build with a
// different on-disk format generation.
var ErrIncompatibleFormat = errors.New("storage: incompatible on-disk format")

// checkFormat validates (or, for a fresh directory, creates) the format
// marker in dir. Called by Open before any data file is touched.
func checkFormat(dir string) error {
	path := filepath.Join(dir, formatFile)
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		var v int
		if _, serr := fmt.Sscanf(strings.TrimSpace(string(raw)), formatMagic+" v%d", &v); serr != nil {
			return fmt.Errorf("%w: unrecognized marker %q in %s", ErrIncompatibleFormat, strings.TrimSpace(string(raw)), path)
		}
		if v != FormatVersion {
			return fmt.Errorf("%w: data directory is format v%d, this build reads v%d", ErrIncompatibleFormat, v, FormatVersion)
		}
		return nil
	case os.IsNotExist(err):
		if dirHasData(dir) {
			return fmt.Errorf("%w: %s holds data but no format marker (written by a pre-v%d build; v1 slot entries and WAL records are not readable here)", ErrIncompatibleFormat, dir, FormatVersion)
		}
		if werr := os.WriteFile(path, []byte(fmt.Sprintf("%s v%d\n", formatMagic, FormatVersion)), 0o644); werr != nil {
			return fmt.Errorf("storage: write format marker: %w", werr)
		}
		return nil
	default:
		return fmt.Errorf("storage: read format marker: %w", err)
	}
}

// dirHasData reports whether dir already holds a non-empty database or log.
// Zero-length files (created but never written) count as fresh. sentinel.log
// is the pre-v3 single-file WAL; wal/ is the v3 segmented layout, which
// counts as data once any segment holds a record past its 8-byte header.
func dirHasData(dir string) bool {
	for _, name := range []string{"sentinel.db", "sentinel.log"} {
		if st, err := os.Stat(filepath.Join(dir, name)); err == nil && st.Size() > 0 {
			return true
		}
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "wal")); err == nil {
		for _, e := range entries {
			if info, err := e.Info(); err == nil && !e.IsDir() && info.Size() > seglog.SegHeaderLen {
				return true
			}
		}
	}
	return false
}
