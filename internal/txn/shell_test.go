package txn

import (
	"errors"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/storage"
)

// countingTask records how often its shell materialised.
type countingTask struct{ n int }

func (c *countingTask) Materialized(*Txn) { c.n++ }

// forEachStore runs f against a store-less and a store-backed manager.
func forEachStore(t *testing.T, f func(t *testing.T, m *Manager, withStore bool)) {
	for _, withStore := range []bool{false, true} {
		name := "storeless"
		if withStore {
			name = "store"
		}
		t.Run(name, func(t *testing.T) { f(t, newMgr(t, withStore), withStore) })
	}
}

// TestUnusedShellLeavesNoTrace: a shell nothing used commits or aborts
// without ever getting an id, a live entry or a family id — so without a
// lock-manager parent or storage state either — and still settles its
// parent's child count and the subtransaction counters.
func TestUnusedShellLeavesNoTrace(t *testing.T) {
	forEachStore(t, func(t *testing.T, m *Manager, _ bool) {
		top, _ := m.Begin()
		for _, commit := range []bool{true, false} {
			var sub Txn
			task := &countingTask{}
			if err := top.BeginShell(&sub, task); err != nil {
				t.Fatal(err)
			}
			finish, want := sub.Abort, Aborted
			if commit {
				finish, want = sub.Commit, Committed
			}
			if err := finish(); err != nil {
				t.Fatal(err)
			}
			if sub.Status() != want || !sub.IsShell() || task.n != 0 {
				t.Fatalf("finished shell: status %v, shell %v, materialised %d times", sub.Status(), sub.IsShell(), task.n)
			}
			if m.Live() != 1 {
				t.Fatalf("Live = %d, want the top-level transaction alone", m.Live())
			}
			if ids := top.FamilyIDs(); len(ids) != 1 {
				t.Fatalf("family %v gained an unused shell", ids)
			}
		}
		if got := m.subBegins.Load(); got != 0 {
			t.Fatalf("sub_begins = %d for two unused shells, want 0", got)
		}
		if m.subCommits.Load() != 1 || m.subAborts.Load() != 1 {
			t.Fatalf("sub commits/aborts = %d/%d, want 1/1", m.subCommits.Load(), m.subAborts.Load())
		}
		if err := top.Commit(); err != nil {
			t.Fatalf("parent commit after its shells finished: %v", err)
		}
	})
}

// TestShellMaterialisesOnFirstUse: each operation that needs a begun
// subtransaction materialises the shell, exactly once however often it is
// repeated, and the result is an ordinary subtransaction: a live entry, a
// family id, a lock-manager parent (its lock is inherited on commit).
func TestShellMaterialisesOnFirstUse(t *testing.T) {
	ops := map[string]func(sub *Txn) error{
		"ID": func(sub *Txn) error {
			if sub.ID() == 0 {
				return errors.New("zero id")
			}
			return nil
		},
		"Lock": func(sub *Txn) error { return sub.Lock("r", lockmgr.Exclusive) },
		"BeginSub": func(sub *Txn) error {
			leaf, err := sub.BeginSub()
			if err != nil {
				return err
			}
			return leaf.Commit()
		},
		"OnFinish": func(sub *Txn) error { sub.OnFinish(func(Status) {}); return nil },
		"Insert": func(sub *Txn) error {
			_, err := sub.Insert(0, []byte("x"))
			return err
		},
	}
	forEachStore(t, func(t *testing.T, m *Manager, withStore bool) {
		for name, op := range ops {
			if name == "Insert" && !withStore {
				continue
			}
			top, _ := m.Begin()
			var sub Txn
			task := &countingTask{}
			if err := top.BeginShell(&sub, task); err != nil {
				t.Fatal(err)
			}
			begins := m.subBegins.Load()
			for i := 0; i < 2; i++ {
				if err := op(&sub); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if task.n != 1 || sub.IsShell() {
				t.Fatalf("%s twice: materialised %d times (shell %v), want once", name, task.n, sub.IsShell())
			}
			want := uint64(1)
			if name == "BeginSub" {
				want += 2 // the two leaves, begun up front
			}
			if got := m.subBegins.Load() - begins; got != want {
				t.Fatalf("%s: sub_begins rose by %d, want %d", name, got, want)
			}
			if m.Lookup(sub.ID()) != &sub {
				t.Fatalf("%s: the materialised shell is not live", name)
			}
			if ids := top.FamilyIDs(); len(ids) < 2 || ids[1] != sub.ID() {
				t.Fatalf("%s: family %v lacks the shell's id %d", name, ids, sub.ID())
			}
			if err := sub.Commit(); err != nil {
				t.Fatal(err)
			}
			if name == "Lock" {
				if h := m.Locks().Holders("r"); h[lockmgr.TxnID(top.ID())] != lockmgr.Exclusive {
					t.Fatalf("parent did not inherit the shell's lock: %v", h)
				}
			}
			if err := top.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestParentCommitWithOpenShell: an unfinished shell is an active child.
func TestParentCommitWithOpenShell(t *testing.T) {
	forEachStore(t, func(t *testing.T, m *Manager, _ bool) {
		top, _ := m.Begin()
		var sub Txn
		if err := top.BeginShell(&sub, nil); err != nil {
			t.Fatal(err)
		}
		if err := top.Commit(); !errors.Is(err, ErrActiveChildren) {
			t.Fatalf("commit with an open shell: %v, want ErrActiveChildren", err)
		}
		if err := top.Abort(); !errors.Is(err, ErrActiveChildren) {
			t.Fatalf("abort with an open shell: %v, want ErrActiveChildren", err)
		}
		if err := sub.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := sub.Abort(); !errors.Is(err, ErrFinished) {
			t.Fatalf("abort after commit: %v", err)
		}
		if err := top.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShellWriteAbortMatchesEagerSub: a shell that wrote and then aborts
// rolls back exactly as a subtransaction begun up front does — its writes
// gone, its locks released, the parent's writes intact.
func TestShellWriteAbortMatchesEagerSub(t *testing.T) {
	m := newMgr(t, true)
	m.Locks().DefaultTimeout = 100 * time.Millisecond
	top, _ := m.Begin()
	keep, err := top.Insert(0, []byte("keep"))
	if err != nil {
		t.Fatal(err)
	}
	eager, _ := top.BeginSub()
	var shell Txn
	if err := top.BeginShell(&shell, nil); err != nil {
		t.Fatal(err)
	}
	for i, sub := range []*Txn{eager, &shell} {
		res := string(rune('a' + i))
		if err := sub.Lock(res, lockmgr.Exclusive); err != nil {
			t.Fatal(err)
		}
		lost, err := sub.Insert(0, []byte("lost"))
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Abort(); err != nil {
			t.Fatal(err)
		}
		if _, err := top.Read(lost); err == nil {
			t.Fatalf("sub %d: aborted write visible", i)
		}
		other, _ := m.Begin()
		if err := other.Lock(res, lockmgr.Exclusive); err != nil {
			t.Fatalf("sub %d: lock not released on abort: %v", i, err)
		}
		_ = other.Abort()
	}
	if got, err := top.Read(keep); err != nil || string(got) != "keep" {
		t.Fatalf("parent write damaged: %q %v", got, err)
	}
	if m.Live() != 1 {
		t.Fatalf("Live = %d after both subtransactions aborted", m.Live())
	}
	if err := top.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestShellOfFinishedParent: a shell cannot begin under a finished
// transaction, and a snapshot transaction has none.
func TestShellOfFinishedParent(t *testing.T) {
	m := newMgr(t, false)
	top, _ := m.Begin()
	_ = top.Commit()
	var sub Txn
	if err := top.BeginShell(&sub, nil); !errors.Is(err, ErrFinished) {
		t.Fatalf("shell of a committed transaction: %v", err)
	}
	sn, _ := m.BeginSnapshot()
	if err := sn.BeginShell(&sub, nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("shell of a snapshot transaction: %v", err)
	}
	_ = sn.Commit()
}

// TestShellTheStoreRefuses: a shell whose store refuses to begin it reports
// why through Materialize, stays a shell (ID is zero, the id of no
// transaction), and still finishes cleanly; a finished shell never begins.
func TestShellTheStoreRefuses(t *testing.T) {
	m := newMgr(t, true)
	top, _ := m.Begin()
	var sub Txn
	if err := top.BeginShell(&sub, nil); err != nil {
		t.Fatal(err)
	}
	_ = m.store.Close()
	if _, err := sub.Materialize(); !errors.Is(err, storage.ErrStoreClosed) {
		t.Fatalf("Materialize on a closed store: %v, want ErrStoreClosed", err)
	}
	if id := sub.ID(); id != 0 || !sub.IsShell() {
		t.Fatalf("refused shell: id %d, shell %v", id, sub.IsShell())
	}
	if err := sub.Lock("r", lockmgr.Exclusive); !errors.Is(err, storage.ErrStoreClosed) {
		t.Fatalf("Lock on a refused shell: %v", err)
	}
	if err := sub.Abort(); err != nil {
		t.Fatalf("abort of a refused shell: %v", err)
	}
	if _, err := sub.Materialize(); !errors.Is(err, ErrFinished) {
		t.Fatalf("Materialize after abort: %v, want ErrFinished", err)
	}
}
