package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestTortureLogTruncation simulates a crash at every possible log length:
// for each truncation point of the WAL, recovery must succeed and expose
// exactly the transactions whose commit record survived the cut. This is
// the strongest statement of the recovery contract: no torn tail, however
// unluckily placed, may corrupt the store or resurrect uncommitted data.
func TestTortureLogTruncation(t *testing.T) {
	// Build a reference run: 8 transactions, two records each.
	srcDir := t.TempDir()
	s, err := Open(Options{Dir: srcDir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	type txnRec struct {
		rids [2]RID
		vals [2]string
	}
	var txns []txnRec
	for i := 0; i < 8; i++ {
		id, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		var tr txnRec
		for j := 0; j < 2; j++ {
			tr.vals[j] = fmt.Sprintf("txn%d-rec%d", i, j)
			tr.rids[j], err = s.Insert(id, 0, []byte(tr.vals[j]))
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(id); err != nil {
			t.Fatal(err)
		}
		txns = append(txns, tr)
	}
	// Flush the log (but NOT the pages — the disk image stays stale, so
	// recovery must redo everything from the log).
	if err := s.wal.Flush(^uint64(0)); err != nil {
		t.Fatal(err)
	}
	// The whole workload fits in the first (active) segment; cut that file.
	logBytes, err := os.ReadFile(filepath.Join(srcDir, "wal", walSegName(0)))
	if err != nil {
		t.Fatal(err)
	}
	dbBytes, err := os.ReadFile(filepath.Join(srcDir, "sentinel.db"))
	if err != nil {
		t.Fatal(err)
	}
	metaBytes, err := os.ReadFile(filepath.Join(srcDir, formatFile))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.wal.Close()
	_ = s.disk.Close()

	// Step through truncation points (in strides to keep runtime sane,
	// but always include record boundaries ±1).
	stride := len(logBytes)/64 + 1
	points := map[int]bool{0: true, len(logBytes): true}
	for p := 0; p < len(logBytes); p += stride {
		points[p] = true
		if p > 0 {
			points[p-1] = true
		}
	}
	for cut := range points {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal", walSegName(0)), logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "sentinel.db"), dbBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		// The crash image carries the format marker with it: a torn tail is
		// a recovery problem, not a format mismatch.
		if err := os.WriteFile(filepath.Join(dir, formatFile), metaBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Options{Dir: dir, PoolSize: 8})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		// Determine, from a scan of the truncated log, which txns have a
		// surviving commit record.
		committed := map[uint64]bool{}
		if err := s2.wal.Scan(0, func(r *LogRecord) error {
			if r.Type == RecCommit {
				committed[r.Txn] = true
			}
			return nil
		}); err != nil {
			t.Fatalf("cut=%d: rescan: %v", cut, err)
		}
		for i, tr := range txns {
			id := uint64(i + 1) // store assigns 1..8 in order
			for j := 0; j < 2; j++ {
				got, err := s2.Read(tr.rids[j])
				if committed[id] {
					if err != nil || string(got) != tr.vals[j] {
						t.Fatalf("cut=%d: committed txn %d record lost: %q %v", cut, id, got, err)
					}
				} else if err == nil && string(got) == tr.vals[j] {
					t.Fatalf("cut=%d: uncommitted txn %d record visible", cut, id)
				}
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
	}
}
