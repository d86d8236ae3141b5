package faulttest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/storage"
)

// tortureIters returns the iteration count: SENTINEL_TORTURE_ITERS if set,
// 500 by default, trimmed under -short so `go test ./...` stays quick.
func tortureIters(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("SENTINEL_TORTURE_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad SENTINEL_TORTURE_ITERS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 60
	}
	return 500
}

// tortureSeed returns the base seed: SENTINEL_TORTURE_SEED if set,
// otherwise derived from the clock. It is always logged, so any failure
// reproduces with SENTINEL_TORTURE_SEED=<seed> SENTINEL_TORTURE_ITERS=<n>.
func tortureSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("SENTINEL_TORTURE_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SENTINEL_TORTURE_SEED=%q", s)
		}
		return n
	}
	return time.Now().UnixNano()
}

// TestCrashTorture runs hundreds of seeded kill-point schedules against the
// storage manager and asserts the recovery invariants after every one:
// committed values present, aborted and in-flight values absent,
// interrupted commits all-or-nothing, no transactions left active, and the
// store still accepts new work.
func TestCrashTorture(t *testing.T) {
	iters := tortureIters(t)
	seed := tortureSeed(t)
	t.Logf("torture: %d iterations, base seed %d (rerun with SENTINEL_TORTURE_SEED=%d)", iters, seed, seed)

	base := t.TempDir()
	crashes := 0
	byPoint := map[string]int{}
	for i := 0; i < iters; i++ {
		s := seed + int64(i)
		dir := filepath.Join(base, fmt.Sprintf("it%04d", i))
		it, err := Run(s, dir)
		if err != nil {
			t.Fatalf("iteration %d (seed %d, kill %s): %v", i, s, it.Killed, err)
		}
		if it.Crashed {
			crashes++
			byPoint[strings.SplitN(it.Killed, "#", 2)[0]]++
		}
		// Each iteration writes a small database; drop it immediately so
		// a 500-iteration run doesn't accumulate hundreds of files.
		os.RemoveAll(dir)
	}
	t.Logf("torture: %d/%d iterations crashed (per point: %v)", crashes, iters, byPoint)
	if crashes == 0 {
		t.Fatalf("no kill-point ever fired across %d iterations — schedules are miscalibrated", iters)
	}
}

// TestTortureHarnessDetectsBrokenRecovery proves the harness is not
// vacuous: with the RecoverSkipUndo sabotage point armed, recovery skips
// its undo pass, a durable loser transaction survives, and Verify MUST
// report the violation. The same directory recovered without sabotage must
// pass, isolating the failure to the sabotage.
func TestTortureHarnessDetectsBrokenRecovery(t *testing.T) {
	// Sabotaged recovery: the loser's values must be flagged as leaked.
	dir := filepath.Join(t.TempDir(), "sabotage")
	exp, err := SeedLoserDir(dir)
	if err != nil {
		t.Fatalf("seed loser dir: %v", err)
	}
	faults.Arm(faults.NewInjector(1, faults.Trigger{
		Point: faults.RecoverSkipUndo, On: 1, Fault: faults.Fault{Err: faults.ErrInjected},
	}))
	st, err := storage.Open(storage.Options{Dir: dir, PoolSize: 8})
	faults.Disarm()
	if err != nil {
		t.Fatalf("reopen with sabotaged recovery: %v", err)
	}
	verr := Verify(st, exp)
	st.Close()
	if verr == nil {
		t.Fatalf("harness passed a recovery that skipped its undo pass — the invariant checks are vacuous")
	}
	if !strings.Contains(verr.Error(), "present after recovery") {
		t.Fatalf("expected a leaked-loser violation, got: %v", verr)
	}

	// Control: intact recovery over an identical directory passes.
	dir2 := filepath.Join(t.TempDir(), "control")
	exp2, err := SeedLoserDir(dir2)
	if err != nil {
		t.Fatalf("seed control dir: %v", err)
	}
	st2, err := storage.Open(storage.Options{Dir: dir2, PoolSize: 8})
	if err != nil {
		t.Fatalf("reopen control: %v", err)
	}
	defer st2.Close()
	if err := Verify(st2, exp2); err != nil {
		t.Fatalf("intact recovery failed verification: %v", err)
	}
}

// TestWALStickySealAfterFsyncFault is the fail-fast ("fsyncgate")
// regression test: once an fsync fails, the WAL must refuse all further
// appends and flushes with ErrWALSealed rather than silently continuing on
// an unknown durability state.
func TestWALStickySealAfterFsyncFault(t *testing.T) {
	dir := t.TempDir()
	w, err := storage.OpenWAL(filepath.Join(dir, "wal.log"), true, 0)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	defer w.Close()

	if _, err := w.Append(&storage.LogRecord{Type: storage.RecInsert, Txn: 1}); err != nil {
		t.Fatalf("append before fault: %v", err)
	}
	faults.Arm(faults.NewInjector(1, faults.Trigger{
		Point: faults.WALFsync, On: 1, Fault: faults.Fault{},
	}))
	err = w.Flush(^uint64(0))
	faults.Disarm()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("flush under fsync fault: got %v, want ErrInjected", err)
	}

	// The seal must be sticky: every subsequent operation fails fast with
	// ErrWALSealed even though the fault layer is disarmed.
	if _, err := w.Append(&storage.LogRecord{Type: storage.RecInsert, Txn: 2}); !errors.Is(err, storage.ErrWALSealed) {
		t.Fatalf("append after seal: got %v, want ErrWALSealed", err)
	}
	if err := w.Flush(^uint64(0)); !errors.Is(err, storage.ErrWALSealed) {
		t.Fatalf("flush after seal: got %v, want ErrWALSealed", err)
	}
	if err := w.Sealed(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Sealed(): got %v, want the sealing error", err)
	}
}

// TestAllocateRollbackReconciles is the regression test for the Allocate
// double-failure path: when both the extending truncate and the restoring
// truncate fail, the disk manager must re-stat the file and adopt its real
// size instead of assuming the rollback worked.
func TestAllocateRollbackReconciles(t *testing.T) {
	dir := t.TempDir()
	d, err := storage.OpenDisk(filepath.Join(dir, "db.pages"))
	if err != nil {
		t.Fatalf("open disk: %v", err)
	}
	defer d.Close()

	if _, err := d.Allocate(); err != nil {
		t.Fatalf("allocate before fault: %v", err)
	}

	// Hit 1 fails the extend, hit 2 fails the rollback truncate too; the
	// reconcile path re-stats the file.
	faults.Arm(faults.NewInjector(1, faults.Trigger{
		Point: faults.DiskTruncate, On: 1, Every: 1, Limit: 2, Fault: faults.Fault{},
	}))
	_, err = d.Allocate()
	faults.Disarm()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("allocate under truncate fault: got %v, want ErrInjected", err)
	}

	// DiskTruncate fires after the real syscall succeeds ("did the work,
	// reported failure"), so whatever the file's actual size is, the
	// reconcile re-stat must have adopted it — the in-memory page count may
	// never disagree with the file.
	st, err := os.Stat(filepath.Join(dir, "db.pages"))
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	filePages := storage.PageID(st.Size() / storage.PageSize)
	if d.NumPages() != filePages {
		t.Fatalf("page count %d disagrees with file size %d pages after failed rollback", d.NumPages(), filePages)
	}

	// The manager must still allocate correctly afterwards: the next
	// Allocate extends from the reconciled size.
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("allocate after reconcile: %v", err)
	}
	if id != filePages {
		t.Fatalf("allocated page %d, want %d", id, filePages)
	}
}

// TestSingleFailedTruncateRollsBack covers the common single-failure case:
// the extend fails, the rollback succeeds, and the page count and file size
// both stay put.
func TestSingleFailedTruncateRollsBack(t *testing.T) {
	dir := t.TempDir()
	d, err := storage.OpenDisk(filepath.Join(dir, "db.pages"))
	if err != nil {
		t.Fatalf("open disk: %v", err)
	}
	defer d.Close()
	if _, err := d.Allocate(); err != nil {
		t.Fatalf("allocate: %v", err)
	}
	before := d.NumPages()

	faults.Arm(faults.NewInjector(1, faults.Trigger{
		Point: faults.DiskTruncate, On: 1, Limit: 1, Fault: faults.Fault{},
	}))
	_, err = d.Allocate()
	faults.Disarm()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("allocate under truncate fault: got %v, want ErrInjected", err)
	}
	if d.NumPages() != before {
		t.Fatalf("page count %d changed after rolled-back allocate, want %d", d.NumPages(), before)
	}
	st, err := os.Stat(filepath.Join(dir, "db.pages"))
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if got := storage.PageID(st.Size() / storage.PageSize); got != before {
		t.Fatalf("file size %d pages after rollback, want %d", got, before)
	}
}
