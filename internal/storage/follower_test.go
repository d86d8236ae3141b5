package storage

import (
	"os"
	"path/filepath"
	"testing"

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
		_, err = ld.Insert(id, []byte("shipped"))
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
		_, err = crashed.Insert(id, []byte("lost"))
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

// TestLeaderOpenOfFollowerDirRedoesBelowStamps: a follower stamps a page
// with the LSN of the commit that published it, and commits do not follow
// operation order. Here A inserts before B on one page but commits after
// it; the follower's page reaches disk with B's commit stamp and without
// A, and the follower dies with A applied only in memory. Opened as a
// leader — a replica restarted without its leader — the directory must
// still redo A's insert, whose LSN is below that stamp; its next open, with
// the follower era ended, trusts page LSNs again.
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
	ridA, err := ld.Insert(a, []byte("a"))
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
		if _, err := os.Stat(filepath.Join(dir, followerMarkFile)); !os.IsNotExist(err) {
			t.Fatalf("%s leader open left the follower mark standing (%v)", open, err)
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
		rid, err = s.Insert(id, []byte(rec))
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
