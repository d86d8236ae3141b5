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

// tortureIters returns the iteration count: the environment variable env
// if set, def by default, short under -short so `go test ./...` stays
// quick.
func tortureIters(t *testing.T, env string, def, short int) int {
	t.Helper()
	if s := os.Getenv(env); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad %s=%q", env, s)
		}
		return n
	}
	if testing.Short() {
		return short
	}
	return def
}

// sweep runs iters seeded iterations of k from one base seed —
// SENTINEL_TORTURE_SEED if set, otherwise the clock, always logged, so any
// failure reproduces with SENTINEL_TORTURE_SEED=<seed> — and tallies the
// crashes per kill point. At calibration size (≥ 100 iterations) every
// point the stack may arm must have fired: one that never does is coverage
// silently lost.
func sweep(t *testing.T, k *Stack, iters int) {
	seed := time.Now().UnixNano()
	if s := os.Getenv("SENTINEL_TORTURE_SEED"); s != "" {
		var err error
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatalf("bad SENTINEL_TORTURE_SEED=%q", s)
		}
	}
	t.Logf("%s torture: %d iterations, base seed %d (rerun with SENTINEL_TORTURE_SEED=%d)", k.Name, iters, seed, seed)
	base := t.TempDir()
	fired := map[faults.Point]int{}
	for i := 0; i < iters; i++ {
		dir := filepath.Join(base, fmt.Sprintf("it%04d", i))
		sch, crashed, err := k.Run(seed+int64(i), dir)
		if err != nil {
			t.Fatalf("iteration %d (%+v): %v", i, sch, err)
		}
		if crashed {
			fired[sch.Point]++
		}
		// Each iteration writes a small database; drop it immediately so
		// a 500-iteration run doesn't accumulate hundreds of files.
		os.RemoveAll(dir)
	}
	crashes, tally, seen := 0, "", map[faults.Point]bool{}
	var never []faults.Point
	for _, sc := range k.scenarios {
		for _, kp := range sc.points {
			if seen[kp.point] {
				continue
			}
			seen[kp.point] = true
			tally += fmt.Sprintf(" %s=%d", kp.point, fired[kp.point])
			crashes += fired[kp.point]
			if fired[kp.point] == 0 {
				never = append(never, kp.point)
			}
		}
	}
	t.Logf("%s torture tally: base seed %d, %d/%d iterations crashed:%s", k.Name, seed, crashes, iters, tally)
	if crashes == 0 {
		t.Fatalf("no kill-point ever fired across %d iterations — schedules are miscalibrated", iters)
	}
	if iters >= 100 && len(never) > 0 {
		t.Fatalf("kill points %v never fired across %d iterations — recalibrate or drop them", never, iters)
	}
}

// TestCrashTorture runs hundreds of seeded kill-point schedules against the
// storage manager and asserts the durability contract after every one:
// committed values present, aborted and in-flight values absent,
// interrupted commits all-or-nothing, no transactions left active, and the
// store still accepts new work.
func TestCrashTorture(t *testing.T) {
	sweep(t, Storage, tortureIters(t, "SENTINEL_TORTURE_ITERS", 500, 60))
}

// TestQueryTorture runs the same schedules through the full object +
// secondary-index stack and, after every recovery, also checks the
// index≡scan oracle: equality probes and range scans must answer exactly
// as a full extent walk, served from the index directories.
func TestQueryTorture(t *testing.T) {
	sweep(t, Query, tortureIters(t, "SENTINEL_TORTURE_ITERS", 500, 60))
}

// TestReplTorture runs seeded leader/follower crash schedules. Default is
// a smoke-sized sweep; CI and `make torture` raise it via
// SENTINEL_REPL_TORTURE_ITERS.
func TestReplTorture(t *testing.T) {
	sweep(t, Repl, tortureIters(t, "SENTINEL_REPL_TORTURE_ITERS", 12, 4))
}

// TestTortureHarnessDetectsBrokenRecovery proves the checks are not
// vacuous, for the storage and the query stack alike: with the
// RecoverSkipUndo sabotage point armed, recovery skips its undo pass, a
// durable loser transaction — objects and index postings, in the query
// stack — survives, and verification MUST report it. The same directory
// recovered without sabotage must pass, isolating the failure to the
// sabotage.
func TestTortureHarnessDetectsBrokenRecovery(t *testing.T) {
	for _, k := range []*Stack{Storage, Query} {
		for _, sabotage := range []bool{true, false} {
			dir := t.TempDir()
			exp, err := k.seedLoser(dir)
			if err != nil {
				t.Fatalf("%s: seed loser dir: %v", k.Name, err)
			}
			if sabotage {
				faults.Arm(faults.NewInjector(1, faults.Trigger{
					Point: faults.RecoverSkipUndo, On: 1, Fault: faults.Fault{Err: faults.ErrInjected},
				}))
			}
			s, err := k.open(dir, Schedule{})
			faults.Disarm()
			if err != nil {
				t.Fatalf("%s: reopen (sabotage %v): %v", k.Name, sabotage, err)
			}
			verr := s.verify(exp)
			s.close()
			if sabotage && (verr == nil || !strings.Contains(verr.Error(), "present after recovery")) {
				t.Fatalf("%s: recovery that skipped its undo pass not flagged as a leaked loser: %v", k.Name, verr)
			}
			if !sabotage && verr != nil {
				t.Fatalf("%s: intact recovery failed verification: %v", k.Name, verr)
			}
		}
	}
}

// TestMirrorDetectsDivergence proves the leader≡follower check is not
// vacuous: two stores with the same history mirror each other, one planted
// difference fails the comparison on both the snapshot and the latest
// scan, and two different updates of one length — equal log ends, unequal
// pages — fail the page comparison.
func TestMirrorDetectsDivergence(t *testing.T) {
	var sts [2]*storage.Store
	var rids [2]storage.RID
	for i := range sts {
		st, err := openStore(t.TempDir(), Schedule{}, false)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		id, err := st.Begin()
		if err == nil {
			rids[i], err = st.Insert(id, []byte("k=1"))
		}
		if err == nil {
			err = st.Commit(id)
		}
		if err != nil {
			t.Fatal(err)
		}
		sts[i] = st
	}
	if err := verifyMirror(sts[0], sts[1]); err != nil {
		t.Fatalf("identical histories reported divergent: %v", err)
	}
	id, err := sts[1].Begin()
	if err == nil {
		_, err = sts[1].Update(id, rids[1], []byte("k=2"))
	}
	if err == nil {
		err = sts[1].Commit(id)
	}
	if err != nil {
		t.Fatal(err)
	}
	err = verifyMirror(sts[0], sts[1])
	for _, scan := range []string{"snapshot scan", "latest scan"} {
		if err == nil || !strings.Contains(err.Error(), scan) {
			t.Fatalf("planted divergence not caught by the %s: %v", scan, err)
		}
	}
	id, err = sts[0].Begin()
	if err == nil {
		_, err = sts[0].Update(id, rids[0], []byte("k=3"))
	}
	if err == nil {
		err = sts[0].Commit(id)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.SamePages(sts[0], sts[1]); err == nil || !strings.Contains(err.Error(), "page") {
		t.Fatalf("planted page divergence at equal log end not caught: %v", err)
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
