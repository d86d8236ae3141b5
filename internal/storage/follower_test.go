package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestFollowerIngestSkipsLeaderAppendPoint pins that an armed
// storage.wal.append trigger is the leader's alone: a follower making
// shipped bytes its own checks a point of its own. A leader and its
// follower in one process share the global injector, so otherwise the
// follower's ingest can eat the one hit the replication torture armed for
// the leader.
func TestFollowerIngestSkipsLeaderAppendPoint(t *testing.T) {
	ld, err := Open(Options{Dir: t.TempDir(), PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	fst, err := Open(Options{Dir: t.TempDir(), PoolSize: 8, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	id, err := ld.Begin()
	if err == nil {
		_, err = ld.Insert(id, 0, []byte("shipped"))
	}
	if err == nil {
		err = ld.Commit(id)
	}
	if err != nil {
		t.Fatal(err)
	}
	cur := ld.LogCursor(fst.LogEnd())
	defer cur.Close()
	base, data, n, err := cur.ReadBatch(1 << 20)
	if err != nil || n == 0 {
		t.Fatalf("read shipped batch: %d records, %v", n, err)
	}

	in := faults.NewInjector(1, faults.Trigger{Point: faults.WALAppend, On: 1})
	faults.Arm(in)
	applied, err := fst.ReplIngest(base, data)
	faults.Disarm()
	if err != nil || applied != n {
		t.Fatalf("follower ingest under an armed leader append point: applied %d of %d, %v", applied, n, err)
	}
	if h := in.Hits(faults.WALAppend); h != 0 {
		t.Fatalf("follower ingest consulted storage.wal.append %d times", h)
	}
}

// TestRecoveryResolvesBeginOnlyLoser: a leader that dies with nothing of a
// transaction durable but its begin record must still have the abort
// logged — by its own restart, and by the follower promoted in its place —
// or a follower of the resolved store holds the transaction open forever.
func TestRecoveryResolvesBeginOnlyLoser(t *testing.T) {
	dir := t.TempDir()
	crashed, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := crashed.FlushLog(); err != nil {
		t.Fatal(err)
	}
	promoted := shipAll(t, crashed)
	if _, err := promoted.Promote(); err != nil {
		t.Fatal(err)
	}
	// Abandoned, not closed: the process died here.
	ld, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	for name, st := range map[string]*Store{"restarted": ld, "promoted": promoted} {
		if act := shipAll(t, st).ActiveTxns(); len(act) != 0 {
			t.Fatalf("follower of the %s leader still holds transactions %v open", name, act)
		}
	}
}

// TestFollowerAppliesToPageWhoseAllocDied: a leader extends its file before
// it logs the page allocation, so a crash can lose the RecAlloc record but
// not the page. The restarted leader must log the allocation before it
// fills that page, or a follower has no page to apply to.
func TestFollowerAppliesToPageWhoseAllocDied(t *testing.T) {
	dir := t.TempDir()
	crashed, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	id, err := crashed.Begin()
	if err == nil {
		_, err = crashed.Insert(id, 0, []byte("lost"))
	}
	if err != nil {
		t.Fatal(err)
	}
	// Abandoned with its log tail unflushed: the process died here.
	ld, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	rid := insertCommitted(t, ld, "kept")
	if got, err := shipAll(t, ld).Read(rid); err != nil || string(got) != "kept" {
		t.Fatalf("follower read %v: %q, %v", rid, got, err)
	}
}

// TestLeaderOpenOfFollowerDirRedoesBelowStamps: A inserts before B on one
// page but commits after it. The follower's page reaches disk while A is
// still in flight, and the follower dies after A's commit arrived. Opened
// as a leader — a replica restarted without its leader — the directory
// must read both records, on this open and the next: the follower stamped
// the page with its operations' own LSNs, so redo may trust them.
func TestLeaderOpenOfFollowerDirRedoesBelowStamps(t *testing.T) {
	ld, err := Open(Options{Dir: t.TempDir(), PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	dir := t.TempDir()
	fst, err := Open(Options{Dir: dir, PoolSize: 8, Follower: true, VersionGCInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ld.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ridA, err := ld.Insert(a, 0, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	ridB := insertCommitted(t, ld, "b")
	if ridA.Page != ridB.Page {
		t.Fatalf("layout: A at %v, B at %v; want one page", ridA, ridB)
	}
	ship(t, ld, fst)
	if err := fst.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := ld.Commit(a); err != nil {
		t.Fatal(err)
	}
	ship(t, ld, fst)
	if err := fst.FlushLog(); err != nil {
		t.Fatal(err)
	}
	// Abandoned, not closed: the follower's process died here.
	for _, open := range []string{"first", "second"} {
		re, err := Open(Options{Dir: dir, PoolSize: 8})
		if err != nil {
			t.Fatalf("%s leader open: %v", open, err)
		}
		for rid, want := range map[RID]string{ridA: "a", ridB: "b"} {
			if got, err := re.Read(rid); err != nil || string(got) != want {
				t.Fatalf("%s leader open: read %v = %q, %v; want %q", open, rid, got, err, want)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// insertCommitted commits one record in a transaction of its own.
func insertCommitted(t *testing.T, s *Store, rec string) RID {
	t.Helper()
	id, err := s.Begin()
	var rid RID
	if err == nil {
		rid, err = s.Insert(id, 0, []byte(rec))
	}
	if err == nil {
		err = s.Commit(id)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

// shipAll opens a fresh follower and feeds it the leader's whole log.
func shipAll(t *testing.T, ld *Store) *Store {
	t.Helper()
	fst, err := Open(Options{Dir: t.TempDir(), PoolSize: 8, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	ship(t, ld, fst)
	return fst
}

// ship feeds fst everything the leader has flushed past fst's log end.
func ship(t *testing.T, ld, fst *Store) {
	t.Helper()
	cur := ld.LogCursor(fst.LogEnd())
	defer cur.Close()
	for {
		base, data, n, err := cur.ReadBatch(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return
		}
		if _, err := fst.ReplIngest(base, data); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFollowerRedoSkipsOperationsAlreadyOnPage is the follower twin of
// TestRedoSkipsOperationsAlreadyOnPage. On one page A is inserted, deleted,
// and B inserted into the freed bytes, each committed and shipped; the
// follower's pages reach disk and it restarts from a checkpoint taken
// before A. Its pages carry their operations' own LSNs, so redo skips A's
// insert — replayed, it would not fit the page B filled.
func TestFollowerRedoSkipsOperationsAlreadyOnPage(t *testing.T) {
	ld, err := Open(Options{Dir: t.TempDir(), PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	dir := t.TempDir()
	fst, err := Open(Options{Dir: dir, PoolSize: 8, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(c byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = c
		}
		return b
	}
	inTx := func(fn func(id uint64) error) {
		t.Helper()
		id, err := ld.Begin()
		if err == nil {
			err = fn(id)
		}
		if err == nil {
			err = ld.Commit(id)
		}
		if err != nil {
			t.Fatal(err)
		}
		ship(t, ld, fst)
	}
	inTx(func(id uint64) error { _, err := ld.Insert(id, 0, fill('f', 2000)); return err })
	if err := fst.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var a1, a2, c RID
	inTx(func(id uint64) (err error) {
		if a1, err = ld.Insert(id, 0, fill('a', 1000)); err == nil {
			a2, err = ld.Insert(id, 0, fill('a', 1000))
		}
		return err
	})
	inTx(func(id uint64) error {
		if err := ld.Delete(id, a1); err != nil {
			return err
		}
		return ld.Delete(id, a2)
	})
	inTx(func(id uint64) (err error) { c, err = ld.Insert(id, 0, fill('c', 2000)); return err })
	if c.Page != a2.Page || c.Slot == a2.Slot {
		t.Fatalf("layout: a2 %v, c %v; want c on a2's page in another slot", a2, c)
	}
	if err := fst.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := fst.FlushLog(); err != nil {
		t.Fatal(err)
	}
	// Abandoned, not closed: the follower's process died here.
	re, err := Open(Options{Dir: dir, PoolSize: 8, Follower: true})
	if err != nil {
		t.Fatalf("follower restart: %v", err)
	}
	defer re.Close()
	if got, err := re.Read(c); err != nil || string(got) != string(fill('c', 2000)) {
		t.Fatalf("read %v after restart: %d bytes, %v", c, len(got), err)
	}
	if _, err := re.Read(a2); err == nil {
		t.Fatalf("deleted record %v back after restart", a2)
	}
}

// TestFollowerRestartMidTransaction: the leader's T updates X, deletes Y
// in a committed subtransaction, inserts Z, and rolls back a second
// subtransaction's update of X; T ships without its commit and the
// follower restarts. Redo puts T's writes back on the pages, so the
// restart registers T again and rebuilds the versions they displaced:
// snapshots read X's and Y's committed images and no Z. T's commit, or
// its rollback, shipped after the restart then resolves all three.
func TestFollowerRestartMidTransaction(t *testing.T) {
	for _, commit := range []bool{true, false} {
		for _, flushPages := range []bool{true, false} {
			t.Run(fmt.Sprintf("commit=%t/flushPages=%t", commit, flushPages), func(t *testing.T) {
				ld, err := Open(Options{Dir: t.TempDir(), PoolSize: 8})
				if err != nil {
					t.Fatal(err)
				}
				defer ld.Close()
				dir := t.TempDir()
				fst, err := Open(Options{Dir: dir, PoolSize: 8, Follower: true, VersionGCInterval: -1})
				if err != nil {
					t.Fatal(err)
				}
				x := insertCommitted(t, ld, "x0")
				y := insertCommitted(t, ld, "y0")
				id, err := ld.Begin()
				if err == nil {
					_, err = ld.Update(id, x, []byte("x1"))
				}
				var sub, rolled uint64
				if err == nil {
					sub, err = ld.BeginSub(id)
				}
				if err == nil {
					err = ld.Delete(sub, y)
				}
				if err == nil {
					err = ld.Commit(sub)
				}
				if err == nil {
					rolled, err = ld.BeginSub(id)
				}
				if err == nil {
					_, err = ld.Update(rolled, x, []byte("x2"))
				}
				if err == nil {
					err = ld.Abort(rolled)
				}
				var z RID
				if err == nil {
					z, err = ld.Insert(id, 0, []byte("z1"))
				}
				if err == nil {
					err = ld.FlushLog()
				}
				if err != nil {
					t.Fatal(err)
				}
				ship(t, ld, fst)
				if flushPages {
					if err := fst.pool.FlushAll(); err != nil {
						t.Fatal(err)
					}
				}
				if err := fst.FlushLog(); err != nil {
					t.Fatal(err)
				}
				// Abandoned, not closed: the follower's process died here.
				re, err := Open(Options{Dir: dir, PoolSize: 8, Follower: true, VersionGCInterval: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if n := re.RecoveryStats().Pending; n != 1 {
					t.Fatalf("restart registered %d transactions, want T alone", n)
				}
				wantSnapshot(t, re, "mid-transaction restart", map[RID]string{x: "x0", y: "y0", z: ""})
				want := map[RID]string{x: "x0", y: "y0", z: ""}
				if commit {
					err, want = ld.Commit(id), map[RID]string{x: "x1", y: "", z: "z1"}
				} else {
					err = ld.Abort(id)
				}
				if err != nil {
					t.Fatal(err)
				}
				ship(t, ld, re)
				wantSnapshot(t, re, "after T resolved", want)
				if act := re.ActiveTxns(); len(act) != 0 {
					t.Fatalf("transactions %v still registered after T resolved", act)
				}
			})
		}
	}
}

// TestFollowerRestartMidRollback: the leader's rollback of T fails after
// compensating T's newest update (of W), so the follower holds T in flight
// with one CLR applied when it restarts, its pages unflushed. Redo repeats
// that CLR, whose restored image was committed before T: snapshots must
// read W's and X's committed images. The leader's retried rollback then
// compensates X alone, and the follower resolves T.
func TestFollowerRestartMidRollback(t *testing.T) {
	ld, err := Open(Options{Dir: t.TempDir(), PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	dir := t.TempDir()
	fst, err := Open(Options{Dir: dir, PoolSize: 8, Follower: true, VersionGCInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	x := insertCommitted(t, ld, "x0")
	w := insertCommitted(t, ld, "w0")
	id, err := ld.Begin()
	if err == nil {
		_, err = ld.Update(id, x, []byte("x1"))
	}
	if err == nil {
		_, err = ld.Update(id, w, []byte("w1"))
	}
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.NewInjector(1, faults.Trigger{Point: faults.StoreAbortUndo, On: 2}))
	err = ld.Abort(id)
	faults.Disarm()
	if err == nil {
		t.Fatal("rollback survived its armed second compensation")
	}
	if err := ld.FlushLog(); err != nil {
		t.Fatal(err)
	}
	ship(t, ld, fst)
	if err := fst.FlushLog(); err != nil {
		t.Fatal(err)
	}
	// Abandoned, not closed: the follower's process died here.
	re, err := Open(Options{Dir: dir, PoolSize: 8, Follower: true, VersionGCInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	wantSnapshot(t, re, "mid-rollback restart", map[RID]string{x: "x0", w: "w0"})
	if err := ld.Abort(id); err != nil {
		t.Fatal(err)
	}
	ship(t, ld, re)
	wantSnapshot(t, re, "after the retried rollback", map[RID]string{x: "x0", w: "w0"})
	if act := re.ActiveTxns(); len(act) != 0 {
		t.Fatalf("transactions %v still registered after the rollback", act)
	}
}

// TestFollowerRestartUnderOpenSub: T updates X, then T's still-open
// subtransaction C updates X again, and the follower restarts before
// either resolves. Restart must push X's chain entries again in one LSN
// order across both transactions — T's, then C's — so that snapshots read
// X's committed image, both before and after C's rollback ships. Go's map
// order picks which transaction restart visits first, so each commit
// variant runs several rounds.
func TestFollowerRestartUnderOpenSub(t *testing.T) {
	for _, commit := range []bool{true, false} {
		for round := 0; round < 8; round++ {
			t.Run(fmt.Sprintf("commit=%t/round=%d", commit, round), func(t *testing.T) {
				ld, err := Open(Options{Dir: t.TempDir(), PoolSize: 8})
				if err != nil {
					t.Fatal(err)
				}
				defer ld.Close()
				dir := t.TempDir()
				fst, err := Open(Options{Dir: dir, PoolSize: 8, Follower: true, VersionGCInterval: -1})
				if err != nil {
					t.Fatal(err)
				}
				x := insertCommitted(t, ld, "x0")
				id, err := ld.Begin()
				if err == nil {
					_, err = ld.Update(id, x, []byte("x1"))
				}
				var sub uint64
				if err == nil {
					sub, err = ld.BeginSub(id)
				}
				if err == nil {
					_, err = ld.Update(sub, x, []byte("x2"))
				}
				if err == nil {
					err = ld.FlushLog()
				}
				if err != nil {
					t.Fatal(err)
				}
				ship(t, ld, fst)
				if err := fst.FlushLog(); err != nil {
					t.Fatal(err)
				}
				// Abandoned, not closed: the follower's process died here.
				re, err := Open(Options{Dir: dir, PoolSize: 8, Follower: true, VersionGCInterval: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if n := re.RecoveryStats().Pending; n != 2 {
					t.Fatalf("restart registered %d transactions, want T and its sub", n)
				}
				wantSnapshot(t, re, "restart under an open sub", map[RID]string{x: "x0"})
				if err := ld.Abort(sub); err != nil {
					t.Fatal(err)
				}
				ship(t, ld, re)
				wantSnapshot(t, re, "after the sub's rollback", map[RID]string{x: "x0"})
				want := "x0"
				if commit {
					err, want = ld.Commit(id), "x1"
				} else {
					err = ld.Abort(id)
				}
				if err != nil {
					t.Fatal(err)
				}
				ship(t, ld, re)
				wantSnapshot(t, re, "after T resolved", map[RID]string{x: want})
				if act := re.ActiveTxns(); len(act) != 0 {
					t.Fatalf("transactions %v still registered after T resolved", act)
				}
			})
		}
	}
}

// wantSnapshot checks what a fresh snapshot of st reads at each RID; ""
// means no visible version.
func wantSnapshot(t *testing.T, st *Store, when string, want map[RID]string) {
	t.Helper()
	sn := st.Snapshot()
	defer sn.Close()
	for rid, w := range want {
		got, err := st.ReadSnapshot(sn, rid)
		if w == "" && err == nil || w != "" && (err != nil || string(got) != w) {
			t.Fatalf("%s: snapshot read %v = %q, %v; want %q", when, rid, got, err, w)
		}
	}
}

// TestFollowerSnapshotsDuringApply (meant for -race): snapshot readers on
// a follower run while it ingests, in small batches, a stream of rounds.
// Each round is one transaction that rewrites every key with the round's
// tag, after a subtransaction wrote "dirty" over half of them and rolled
// back. A snapshot must read one committed round across all keys, never a
// dirty or partly applied one, and the same again on a second pass.
func TestFollowerSnapshotsDuringApply(t *testing.T) {
	const keys, rounds = 8, 150
	ld, err := Open(Options{Dir: t.TempDir(), PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	rids := make([]RID, keys)
	id, err := ld.Begin()
	for i := 0; err == nil && i < keys; i++ {
		rids[i], err = ld.Insert(id, 0, []byte("r000"))
	}
	if err == nil {
		err = ld.Commit(id)
	}
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		id, err = ld.Begin()
		var sub uint64
		if err == nil {
			sub, err = ld.BeginSub(id)
		}
		for i := 0; err == nil && i < keys; i += 2 {
			_, err = ld.Update(sub, rids[i], []byte("dirt"))
		}
		if err == nil {
			err = ld.Abort(sub)
		}
		for i := 0; err == nil && i < keys; i++ {
			_, err = ld.Update(id, rids[i], []byte(fmt.Sprintf("r%03d", r)))
		}
		if err == nil {
			err = ld.Commit(id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	fst, err := Open(Options{Dir: t.TempDir(), PoolSize: 16, Follower: true, VersionGCInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()

	cur := ld.LogCursor(0)
	defer cur.Close()
	// ingest applies one small batch of the stream, false once it is all in.
	ingest := func() bool {
		base, data, n, err := cur.ReadBatch(512)
		if err == nil && n > 0 {
			_, err = fst.ReplIngest(base, data)
		}
		if err != nil {
			t.Fatal(err)
		}
		return n > 0
	}
	for fst.CommitTS() == 0 {
		ingest() // up to the keys' insert
	}
	// read returns the round every key reads at sn.
	read := func(sn *Snapshot) (string, error) {
		var seen string
		for i, rid := range rids {
			got, err := fst.ReadSnapshot(sn, rid)
			if err != nil {
				return "", fmt.Errorf("key %d: %v", i, err)
			}
			if i == 0 {
				seen = string(got)
			} else if string(got) != seen {
				return "", fmt.Errorf("key 0 reads %q, key %d %q", seen, i, got)
			}
		}
		return seen, nil
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				sn := fst.Snapshot()
				first, err := read(sn)
				if err == nil && first == "dirt" {
					err = fmt.Errorf("snapshot at %d read a rolled-back value", sn.TS())
				}
				var second string
				if err == nil {
					second, err = read(sn)
				}
				if err == nil && second != first {
					err = fmt.Errorf("snapshot at %d read %q, then %q", sn.TS(), first, second)
				}
				sn.Close()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for ingest() {
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sn := fst.Snapshot()
	defer sn.Close()
	if got, err := read(sn); err != nil || got != fmt.Sprintf("r%03d", rounds) {
		t.Fatalf("caught-up follower reads %q, %v", got, err)
	}
}
