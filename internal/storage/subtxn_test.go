package storage

import (
	"testing"
)

func TestSubtxnCommitMergesIntoParent(t *testing.T) {
	s := openTestStore(t)
	top, _ := s.Begin()
	sub, err := s.BeginSub(top)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := s.Insert(sub, 0, []byte("from-sub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(sub); err != nil {
		t.Fatal(err)
	}
	// Parent abort must now undo the child's merged operation.
	if err := s.Abort(top); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(rid); err == nil {
		t.Fatal("child's insert survived parent abort")
	}
}

func TestSubtxnAbortUndoesOnlyItsOps(t *testing.T) {
	s := openTestStore(t)
	top, _ := s.Begin()
	ridTop, err := s.Insert(top, 0, []byte("parent-data"))
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := s.BeginSub(top)
	ridSub, err := s.Insert(sub, 0, []byte("child-data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(sub); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(ridSub); err == nil {
		t.Fatal("aborted child's insert still visible")
	}
	if got, err := s.Read(ridTop); err != nil || string(got) != "parent-data" {
		t.Fatalf("parent data damaged by child abort: %q %v", got, err)
	}
	if err := s.Commit(top); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(ridTop); err != nil || string(got) != "parent-data" {
		t.Fatalf("parent data lost: %q %v", got, err)
	}
}

func TestCommitWithActiveChildrenRejected(t *testing.T) {
	s := openTestStore(t)
	top, _ := s.Begin()
	sub, _ := s.BeginSub(top)
	if err := s.Commit(top); err == nil {
		t.Fatal("commit with active subtransaction should fail")
	}
	if err := s.Abort(top); err == nil {
		t.Fatal("abort with active subtransaction should fail")
	}
	if err := s.Commit(sub); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(top); err != nil {
		t.Fatal(err)
	}
}

func TestBeginSubOfUnknownParent(t *testing.T) {
	s := openTestStore(t)
	if _, err := s.BeginSub(12345); err == nil {
		t.Fatal("BeginSub of unknown parent should fail")
	}
}

func TestNestedDepthThree(t *testing.T) {
	s := openTestStore(t)
	top, _ := s.Begin()
	mid, err := s.BeginSub(top)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := s.BeginSub(mid)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := s.Insert(leaf, 0, []byte("deep"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(leaf); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(mid); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(top); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(rid); err != nil || string(got) != "deep" {
		t.Fatalf("deep record: %q %v", got, err)
	}
}

func TestSubtxnCommittedButRootCrashed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	top, _ := s.Begin()
	sub, _ := s.BeginSub(top)
	rid, err := s.Insert(sub, 0, []byte("sub-committed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(sub); err != nil {
		t.Fatal(err)
	}
	// Crash before the top-level outcome; make sure the child's records
	// reached the log first, as they could in a real crash.
	if err := s.wal.Flush(^uint64(0)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Read(rid); err == nil {
		t.Fatal("subtransaction data survived although the top level never committed")
	}
	_ = s.wal.Close()
	_ = s.disk.Close()
}

func TestSubtxnChainCommittedDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	top, _ := s.Begin()
	sub, _ := s.BeginSub(top)
	rid, _ := s.Insert(sub, 0, []byte("chain"))
	if err := s.Commit(sub); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(top); err != nil {
		t.Fatal(err)
	}
	// Crash after top-level commit: everything must survive.
	s2, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Read(rid); err != nil || string(got) != "chain" {
		t.Fatalf("chain-committed record lost: %q %v", got, err)
	}
	_ = s.wal.Close()
	_ = s.disk.Close()
}
