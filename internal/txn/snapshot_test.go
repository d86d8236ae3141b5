package txn

import (
	"errors"
	"testing"

	"repro/internal/lockmgr"
)

// TestSnapshotTxnZeroLocks is the acceptance check for the lock-free read
// path at the transaction layer: a snapshot transaction performs reads and
// even explicit Lock calls without the lock manager granting or queueing
// anything — every request is counted as a bypass — and every write
// operation is rejected with ErrReadOnly.
func TestSnapshotTxnZeroLocks(t *testing.T) {
	m := newMgr(t, true)

	w, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := w.Insert(0, []byte("committed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	grants0, waits0, _, _, bypass0 := m.Locks().Stats()

	sn, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !sn.ReadOnly() {
		t.Fatal("snapshot txn not marked read-only")
	}
	if sn.Snapshot() == nil {
		t.Fatal("snapshot txn has no storage snapshot")
	}
	for i := 0; i < 3; i++ {
		if got, err := sn.Read(rid); err != nil || string(got) != "committed" {
			t.Fatalf("snapshot read: %q, %v", got, err)
		}
		// An explicit lock request from a snapshot txn must be a counted
		// no-op, never a grant.
		if err := sn.Lock("obj-zero-lock", lockmgr.Shared); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sn.Insert(0, []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert on snapshot txn: %v", err)
	}
	if _, err := sn.Update(rid, []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Update on snapshot txn: %v", err)
	}
	if err := sn.Delete(rid); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete on snapshot txn: %v", err)
	}
	if _, err := sn.BeginSub(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("BeginSub on snapshot txn: %v", err)
	}
	if err := sn.Commit(); err != nil {
		t.Fatal(err)
	}

	grants, waits, _, _, bypass := m.Locks().Stats()
	if grants != grants0 || waits != waits0 {
		t.Fatalf("snapshot txn touched the lock manager: grants %d->%d waits %d->%d",
			grants0, grants, waits0, waits)
	}
	if bypass <= bypass0 {
		t.Fatalf("lock bypasses not counted: %d -> %d", bypass0, bypass)
	}
}

// TestSnapshotTxnNotBlockedByWriter: a snapshot transaction reads the
// committed state from before a concurrent read-write transaction, even
// while that writer holds an exclusive lock on the record and has an
// uncommitted update in place — the situation that blocks a 2PL shared
// read for the writer's full commit latency.
func TestSnapshotTxnNotBlockedByWriter(t *testing.T) {
	m := newMgr(t, true)

	w, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := w.Insert(0, []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	w2, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Lock("rec", lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Update(rid, []byte("new")); err != nil {
		t.Fatal(err)
	}

	sn, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sn.Read(rid); err != nil || string(got) != "old" {
		t.Fatalf("snapshot read under writer's X lock: %q, %v", got, err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Repeatable: the snapshot keeps its pre-commit view.
	if got, err := sn.Read(rid); err != nil || string(got) != "old" {
		t.Fatalf("snapshot not repeatable across writer commit: %q, %v", got, err)
	}
	if err := sn.Commit(); err != nil {
		t.Fatal(err)
	}

	sn2, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sn2.Read(rid); err != nil || string(got) != "new" {
		t.Fatalf("fresh snapshot after commit: %q, %v", got, err)
	}
	if err := sn2.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestUseSnapshotScope: arming a snapshot on a read-write transaction
// turns its reads version-resolved and its lock requests into bypasses for
// exactly the armed scope; release restores normal 2PL behaviour.
func TestUseSnapshotScope(t *testing.T) {
	m := newMgr(t, true)

	w, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := w.Insert(0, []byte("base"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	rw, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Own uncommitted write must stay visible through the armed snapshot
	// (SnapshotFor includes the transaction family).
	if _, err := rw.Update(rid, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	grants0, _, _, _, bypass0 := m.Locks().Stats()
	release, err := rw.UseSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rw.Snapshot() == nil {
		t.Fatal("UseSnapshot did not arm a snapshot")
	}
	if err := rw.Lock("rec", lockmgr.Shared); err != nil {
		t.Fatal(err)
	}
	if got, err := rw.Read(rid); err != nil || string(got) != "mine" {
		t.Fatalf("armed read lost own write: %q, %v", got, err)
	}
	if _, err := rw.Update(rid, []byte("blocked")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write inside armed scope: %v", err)
	}
	release()
	if rw.Snapshot() != nil {
		t.Fatal("release did not disarm the snapshot")
	}
	grants1, _, _, _, bypass1 := m.Locks().Stats()
	if grants1 != grants0 {
		t.Fatalf("armed scope took real locks: grants %d -> %d", grants0, grants1)
	}
	if bypass1 <= bypass0 {
		t.Fatalf("armed lock request not counted as bypass: %d -> %d", bypass0, bypass1)
	}
	// Disarmed again: locks are real, writes work.
	if err := rw.Lock("rec", lockmgr.Shared); err != nil {
		t.Fatal(err)
	}
	if grants2, _, _, _, _ := m.Locks().Stats(); grants2 != grants1+1 {
		t.Fatalf("post-release lock not granted: %d -> %d", grants1, grants2)
	}
	if _, err := rw.Update(rid, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
}
