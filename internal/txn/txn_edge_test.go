package txn

import (
	"errors"
	"testing"

	"repro/internal/lockmgr"
	"repro/internal/storage"
)

func TestFamilyIDsTracksSubtransactions(t *testing.T) {
	m := newMgr(t, false)
	top, _ := m.Begin()
	if ids := top.FamilyIDs(); len(ids) != 1 || ids[0] != top.ID() {
		t.Fatalf("fresh family: %v", ids)
	}
	sub, _ := top.BeginSub()
	leaf, _ := sub.BeginSub()
	ids := top.FamilyIDs()
	if len(ids) != 3 {
		t.Fatalf("family: %v", ids)
	}
	// The family includes finished subtransactions (their occurrences
	// still need flushing at top-level end).
	_ = leaf.Commit()
	_ = sub.Abort()
	if got := top.FamilyIDs(); len(got) != 3 {
		t.Fatalf("family after children finished: %v", got)
	}
	// A child's FamilyIDs is the root's.
	sub2, _ := top.BeginSub()
	if got := sub2.FamilyIDs(); len(got) != 4 {
		t.Fatalf("family from child: %v", got)
	}
	_ = sub2.Abort()
	_ = top.Commit()
}

func TestAbortWithActiveChildrenRejected(t *testing.T) {
	m := newMgr(t, false)
	top, _ := m.Begin()
	sub, _ := top.BeginSub()
	if err := top.Abort(); !errors.Is(err, ErrActiveChildren) {
		t.Fatalf("abort with child: %v", err)
	}
	_ = sub.Commit()
	if err := top.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestSubtxnStorageRollbackViaManager(t *testing.T) {
	m := newMgr(t, true)
	top, _ := m.Begin()
	keep, err := top.Insert(0, []byte("keep"))
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := top.BeginSub()
	lost, err := sub.Insert(0, []byte("lost"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := top.Read(lost); err == nil {
		t.Fatal("aborted subtxn write visible")
	}
	if got, err := top.Read(keep); err != nil || string(got) != "keep" {
		t.Fatalf("parent write damaged: %q %v", got, err)
	}
	if err := top.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestListenerNilSafe(t *testing.T) {
	m := newMgr(t, false)
	m.SetListener(nil) // resets to no-op, must not panic
	tx, _ := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestLookupLiveAndGone(t *testing.T) {
	m := newMgr(t, false)
	tx, _ := m.Begin()
	if m.Lookup(tx.ID()) != tx {
		t.Fatal("Lookup missed live txn")
	}
	_ = tx.Commit()
	if m.Lookup(tx.ID()) != nil {
		t.Fatal("Lookup found finished txn")
	}
	if m.Lookup(99999) != nil {
		t.Fatal("Lookup invented a txn")
	}
}

func TestStatusAccessors(t *testing.T) {
	m := newMgr(t, false)
	tx, _ := m.Begin()
	if tx.Status() != Active {
		t.Fatalf("Status=%v", tx.Status())
	}
	_ = tx.Commit()
	if tx.Status() != Committed {
		t.Fatalf("Status=%v", tx.Status())
	}
	tx2, _ := m.Begin()
	_ = tx2.Abort()
	if tx2.Status() != Aborted {
		t.Fatalf("Status=%v", tx2.Status())
	}
}

func TestOnFinishRunsOnAbort(t *testing.T) {
	m := newMgr(t, false)
	tx, _ := m.Begin()
	var got Status
	tx.OnFinish(func(s Status) { got = s })
	_ = tx.Abort()
	if got != Aborted {
		t.Fatalf("OnFinish status=%v", got)
	}
}

func TestBeginSubAfterStoreClosed(t *testing.T) {
	st, err := storage.Open(storage.Options{Dir: t.TempDir(), PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(st, lockmgr.New())
	top, _ := m.Begin()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := top.BeginSub(); err == nil {
		t.Fatal("BeginSub after store close succeeded")
	}
	// The failed BeginSub must not leave a phantom child blocking commit.
	top.mu.Lock()
	children := top.children
	top.mu.Unlock()
	if children != 0 {
		t.Fatalf("phantom children: %d", children)
	}
}
