package txn

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/storage"
)

func newMgr(t *testing.T, withStore bool) *Manager {
	t.Helper()
	var store *storage.Store
	if withStore {
		var err error
		store, err = storage.Open(storage.Options{Dir: t.TempDir(), PoolSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
	}
	return NewManager(store, lockmgr.New())
}

func TestStatusString(t *testing.T) {
	if Active.String() != "active" || Committed.String() != "committed" || Aborted.String() != "aborted" {
		t.Fatal("status strings wrong")
	}
	if !strings.Contains(Status(9).String(), "9") {
		t.Fatal("unknown status string")
	}
}

func TestTransactionEventsEmitted(t *testing.T) {
	m := newMgr(t, false)
	var mu sync.Mutex
	var got []string
	m.SetListener(func(name string, id uint64) {
		mu.Lock()
		got = append(got, name)
		mu.Unlock()
	})
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []string{"beginTransaction", "preCommitTransaction", "commitTransaction"}
	if len(got) != len(want) {
		t.Fatalf("events=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events=%v want %v", got, want)
		}
	}

	got = nil
	tx2, _ := m.Begin()
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != "abortTransaction" {
		t.Fatalf("abort events=%v", got)
	}
}

func TestPreCommitRunsBeforeCommit(t *testing.T) {
	// The listener can still create and run a subtransaction during
	// preCommit — exactly what deferred rule execution does.
	m := newMgr(t, true)
	var subRan bool
	var txPtr *Txn
	m.SetListener(func(name string, id uint64) {
		if name == "preCommitTransaction" {
			sub, err := txPtr.BeginSub()
			if err != nil {
				t.Errorf("BeginSub during preCommit: %v", err)
				return
			}
			if _, err := sub.Insert(0, []byte("deferred-write")); err != nil {
				t.Errorf("Insert in deferred sub: %v", err)
			}
			if err := sub.Commit(); err != nil {
				t.Errorf("sub.Commit: %v", err)
			}
			subRan = true
		}
	})
	tx, _ := m.Begin()
	txPtr = tx
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !subRan {
		t.Fatal("preCommit hook never ran")
	}
}

func TestNestedHierarchy(t *testing.T) {
	m := newMgr(t, false)
	top, _ := m.Begin()
	if top.IsNested() || top.Depth() != 0 || top.Root() != top {
		t.Fatal("top-level misclassified")
	}
	sub, err := top.BeginSub()
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := sub.BeginSub()
	if err != nil {
		t.Fatal(err)
	}
	if !leaf.IsNested() || leaf.Depth() != 2 || leaf.Root() != top {
		t.Fatalf("leaf: nested=%v depth=%d", leaf.IsNested(), leaf.Depth())
	}
	if err := leaf.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := top.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.Live() != 0 {
		t.Fatalf("Live=%d", m.Live())
	}
}

func TestCommitWithActiveChildRejected(t *testing.T) {
	m := newMgr(t, false)
	top, _ := m.Begin()
	sub, _ := top.BeginSub()
	if err := top.Commit(); !errors.Is(err, ErrActiveChildren) {
		t.Fatalf("want ErrActiveChildren, got %v", err)
	}
	if err := sub.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := top.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFinishRejected(t *testing.T) {
	m := newMgr(t, false)
	tx, _ := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrFinished) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrFinished) {
		t.Fatalf("abort after commit: %v", err)
	}
	if _, err := tx.BeginSub(); !errors.Is(err, ErrFinished) {
		t.Fatalf("BeginSub after commit: %v", err)
	}
}

func TestSubtxnLockInheritance(t *testing.T) {
	m := newMgr(t, false)
	top, _ := m.Begin()
	sub, _ := top.BeginSub()
	if err := sub.Lock("obj-1", lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := sub.Commit(); err != nil {
		t.Fatal(err)
	}
	holders := m.Locks().Holders("obj-1")
	if holders[lockmgr.TxnID(top.ID())] != lockmgr.Exclusive {
		t.Fatalf("parent did not inherit lock: %v", holders)
	}
	// Released at top-level commit.
	if err := top.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(m.Locks().Holders("obj-1")) != 0 {
		t.Fatal("locks survived top-level commit")
	}
}

func TestSubtxnAbortReleasesLocks(t *testing.T) {
	m := newMgr(t, false)
	m.Locks().DefaultTimeout = 100 * time.Millisecond
	top, _ := m.Begin()
	sub, _ := top.BeginSub()
	if err := sub.Lock("obj-2", lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := sub.Abort(); err != nil {
		t.Fatal(err)
	}
	other, _ := m.Begin()
	if err := other.Lock("obj-2", lockmgr.Exclusive); err != nil {
		t.Fatalf("lock not released on subtxn abort: %v", err)
	}
	_ = other.Abort()
	_ = top.Abort()
}

func TestStorageIntegrationCommitAbort(t *testing.T) {
	m := newMgr(t, true)
	tx, _ := m.Begin()
	rid, err := tx.Insert(0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tx.Read(rid); err != nil || string(got) != "hello" {
		t.Fatalf("Read=%q err=%v", got, err)
	}
	if _, err := tx.Update(rid, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := m.Begin()
	if err := tx2.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	tx3, _ := m.Begin()
	if got, err := tx3.Read(rid); err != nil || string(got) != "world" {
		t.Fatalf("after abort Read=%q err=%v", got, err)
	}
	_ = tx3.Commit()
}

func TestOnFinishCallbacks(t *testing.T) {
	m := newMgr(t, false)
	tx, _ := m.Begin()
	var order []string
	tx.OnFinish(func(s Status) { order = append(order, "first:"+s.String()) })
	tx.OnFinish(func(s Status) { order = append(order, "second:"+s.String()) })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Newest-first (LIFO), like defer.
	if len(order) != 2 || order[0] != "second:committed" || order[1] != "first:committed" {
		t.Fatalf("order=%v", order)
	}
}

func TestStorelessSubtxnOps(t *testing.T) {
	m := newMgr(t, false)
	tx, _ := m.Begin()
	if _, err := tx.Insert(0, []byte("x")); err == nil {
		t.Fatal("Insert without store should fail")
	}
	if _, err := tx.Read(storage.RID{}); err == nil {
		t.Fatal("Read without store should fail")
	}
	if _, err := tx.Update(storage.RID{}, nil); err == nil {
		t.Fatal("Update without store should fail")
	}
	if err := tx.Delete(storage.RID{}); err == nil {
		t.Fatal("Delete without store should fail")
	}
	_ = tx.Abort()
}

func TestConcurrentSubtransactions(t *testing.T) {
	m := newMgr(t, true)
	top, _ := m.Begin()
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := top.BeginSub()
			if err != nil {
				errs <- err
				return
			}
			if _, err := sub.Insert(0, []byte{byte(i)}); err != nil {
				errs <- err
				return
			}
			if i%2 == 0 {
				errs <- sub.Commit()
			} else {
				errs <- sub.Abort()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := top.Commit(); err != nil {
		t.Fatal(err)
	}
}
