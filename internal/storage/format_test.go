package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFormatMarkerLifecycle: a fresh Open writes the version marker, a
// matching marker reopens cleanly, and every mismatch shape — wrong
// version, unparseable marker, data with no marker (a pre-versioning
// database) — is rejected with ErrIncompatibleFormat naming the problem,
// never a checksum/corruption report.
func TestFormatMarkerLifecycle(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Store, error) {
		return Open(Options{Dir: dir, PoolSize: 16, VersionGCInterval: -1})
	}
	s, err := open()
	if err != nil {
		t.Fatal(err)
	}
	rid := commitValue(t, s, "survivor")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	meta := filepath.Join(dir, formatFile)
	raw, err := os.ReadFile(meta)
	if err != nil {
		t.Fatalf("fresh Open left no format marker: %v", err)
	}
	if want := fmt.Sprintf("%s v%d\n", formatMagic, FormatVersion); string(raw) != want {
		t.Fatalf("marker contents %q, want %q", raw, want)
	}

	// Matching marker: reopen works and the data is there.
	re, err := open()
	if err != nil {
		t.Fatal(err)
	}
	sn := re.Snapshot()
	if got, err := re.ReadSnapshot(sn, rid); err != nil || string(got) != "survivor" {
		t.Fatalf("reopen read: %q, %v", got, err)
	}
	sn.Close()
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	rejects := func(name string) {
		t.Helper()
		if _, err := open(); !errors.Is(err, ErrIncompatibleFormat) {
			t.Fatalf("%s: got %v, want ErrIncompatibleFormat", name, err)
		}
	}
	if err := os.WriteFile(meta, []byte(formatMagic+" v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rejects("older format version")
	// v3 (gob object records) is refused the same way, and the error names
	// both generations.
	if err := os.WriteFile(meta, []byte(formatMagic+" v3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rejects("previous format version")
	if _, err := open(); !strings.Contains(err.Error(), "v3") || !strings.Contains(err.Error(), fmt.Sprintf("v%d", FormatVersion)) {
		t.Fatalf("v3 refusal does not name both generations: %v", err)
	}
	// v4 indexes hold no postings for OID-valued attributes: refused too.
	if err := os.WriteFile(meta, []byte(formatMagic+" v4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rejects("v4 format version")
	if _, err := open(); !strings.Contains(err.Error(), "v4") || !strings.Contains(err.Error(), fmt.Sprintf("v%d", FormatVersion)) {
		t.Fatalf("v4 refusal does not name both generations: %v", err)
	}
	// v5 logs publish commits by a separate commit-timestamp record that
	// a v6 build neither writes nor reads: refused too.
	if err := os.WriteFile(meta, []byte(formatMagic+" v5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rejects("v5 format version")
	if _, err := open(); !strings.Contains(err.Error(), "v5") || !strings.Contains(err.Error(), fmt.Sprintf("v%d", FormatVersion)) {
		t.Fatalf("v5 refusal does not name both generations: %v", err)
	}
	// v6 follower pages carry commit-record LSN stamps that redo must not
	// trust: refused too.
	if err := os.WriteFile(meta, []byte(formatMagic+" v6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rejects("v6 format version")
	if _, err := open(); !strings.Contains(err.Error(), "v6") || !strings.Contains(err.Error(), fmt.Sprintf("v%d", FormatVersion)) {
		t.Fatalf("v6 refusal does not name both generations: %v", err)
	}
	if err := os.WriteFile(meta, []byte(formatMagic+" v999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rejects("newer format version")
	if err := os.WriteFile(meta, []byte("scribbles\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rejects("unparseable marker")
	if err := os.Remove(meta); err != nil {
		t.Fatal(err)
	}
	rejects("populated directory with no marker")

	// Restoring the marker restores access; nothing above touched the data.
	if err := os.WriteFile(meta, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re2, err := open()
	if err != nil {
		t.Fatalf("reopen after restoring marker: %v", err)
	}
	defer re2.Close()
	sn2 := re2.Snapshot()
	defer sn2.Close()
	if got, err := re2.ReadSnapshot(sn2, rid); err != nil || string(got) != "survivor" {
		t.Fatalf("read after marker restore: %q, %v", got, err)
	}
}

// TestFormatMarkerFreshDirIgnoresEmptyFiles: zero-length db/log files (for
// example created by a crash before any write) do not make a directory
// count as a pre-versioning database.
func TestFormatMarkerFreshDirIgnoresEmptyFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"sentinel.db", "sentinel.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Options{Dir: dir, PoolSize: 16, VersionGCInterval: -1})
	if err != nil {
		t.Fatalf("open over empty files: %v", err)
	}
	defer s.Close()
	commitValue(t, s, "ok")
}
