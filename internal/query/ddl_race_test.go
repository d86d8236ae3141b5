package query

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/txn"
)

// Index DDL and locked extent scans against concurrent writers of the
// class. Writers take the class lock intent-exclusive, a locked scan takes
// it shared and DDL exclusive, so writers and either wait each other out
// while locked scans share the class; lock-manager victims (a writer
// queued behind DDL while holding an object another writer wants) retry,
// like any application would.

func retryable(err error) bool {
	return errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout)
}

// TestIndexDDLAgainstWriters: CreateIndex and DropIndex run while writers
// create and re-key objects of the class; afterwards the index answers
// exactly what an extent scan does.
func TestIndexDDLAgainstWriters(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	e.tm.Locks().DefaultTimeout = 10 * time.Second
	e.seedStocks(40, 5)
	const writers, rounds, ddlRounds = 3, 30, 6

	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	attempt := func(fn func(tx *txn.Txn) error) error {
		for {
			tx, err := e.tm.Begin()
			if err != nil {
				return err
			}
			if err = fn(tx); err == nil {
				if err = tx.Commit(); err == nil {
					return nil
				}
			} else {
				_ = tx.Abort()
			}
			if !retryable(err) {
				return err
			}
		}
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				err := attempt(func(tx *txn.Txn) error {
					if _, err := e.reg.New(tx, "STOCK", map[string]any{"sym": fmt.Sprintf("W%d-%d", w, r), "price": r % 5}); err != nil {
						return err
					}
					oids := e.reg.ExtentOIDs("STOCK", false)
					inst, err := e.reg.Load(tx, oids[(w*7+r)%len(oids)])
					if err != nil {
						return err
					}
					inst.Attrs()["price"] = (r + w) % 5
					return e.reg.Persist(tx, inst)
				})
				if err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < ddlRounds; r++ {
			err := attempt(func(tx *txn.Txn) error {
				_, err := e.qm.CreateIndex(tx, "STOCK", "price", OrderedIndex)
				return err
			})
			if err == nil && r < ddlRounds-1 {
				err = attempt(func(tx *txn.Txn) error { return e.qm.DropIndex(tx, "STOCK", "price", OrderedIndex) })
			}
			if err != nil {
				errc <- fmt.Errorf("DDL: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	tx := e.begin()
	defer e.commit(tx)
	if e.qm.lookupIndex("STOCK", "price", OrderedIndex) == nil {
		t.Fatal("the last CreateIndex left no index")
	}
	for k := 0; k < 5; k++ {
		e.checkOracle(tx, "STOCK", Eq("price", k))
	}
	e.checkOracle(tx, "STOCK", Between("price", 1, 3))
}

// TestLockedScanHoldsOffCreates: a locked extent query makes a concurrent
// New of its class wait until the query's transaction resolves — the scan
// sees no phantom — while a snapshot query takes no lock at all.
func TestLockedScanHoldsOffCreates(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	e.seedStocks(5, 5)
	scan := e.begin()
	rows := e.runOIDs(scan, Q{Class: "STOCK"})

	created := make(chan error, 1)
	go func() {
		tx, err := e.tm.Begin()
		if err == nil {
			if _, err = e.reg.New(tx, "STOCK", map[string]any{"sym": "PHANTOM"}); err == nil {
				err = tx.Commit()
			} else {
				_ = tx.Abort()
			}
		}
		created <- err
	}()
	select {
	case err := <-created:
		t.Fatalf("New of the scanned class finished while the locked scan's transaction was open: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if again := e.runOIDs(scan, Q{Class: "STOCK"}); len(again) != len(rows) {
		t.Fatalf("locked rescan saw %d objects, first scan %d: a phantom", len(again), len(rows))
	}
	// A snapshot scan of the same class neither waits nor blocks.
	snap, err := e.tm.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.runOIDs(snap, Q{Class: "STOCK"}); len(got) != len(rows) {
		t.Fatalf("snapshot scan saw %d objects, want %d", len(got), len(rows))
	}
	_ = snap.Commit()
	e.commit(scan)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	tx := e.begin()
	defer e.commit(tx)
	if got := e.runOIDs(tx, Q{Class: "STOCK"}); len(got) != len(rows)+1 {
		t.Fatalf("after the scan resolved: %d objects, want %d", len(got), len(rows)+1)
	}
}

// TestLockedScansShareTheClass: two read-write transactions query the same
// class at once; neither waits for the other.
func TestLockedScansShareTheClass(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	e.seedStocks(5, 5)
	first, second := e.begin(), e.begin()
	e.runOIDs(first, Q{Class: "STOCK"})
	done := make(chan []uint64, 1)
	go func() { done <- e.runOIDs(second, Q{Class: "STOCK"}) }()
	select {
	case rows := <-done:
		if len(rows) != 5 {
			t.Fatalf("second locked scan saw %d objects, want 5", len(rows))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a locked scan waited for another transaction's locked scan of the class")
	}
	e.commit(first)
	e.commit(second)
}

// TestWriteThenScanUpgradeDeadlock pins what two transactions that each
// write a class and then query it get: each holds the class lock
// intent-exclusive, and a locked scan upgrades it to exclusive, so the
// second to ask closes a cycle and is the deadlock victim. Once it aborts
// the first scans and commits.
func TestWriteThenScanUpgradeDeadlock(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	e.seedStocks(5, 5)
	first, second := e.begin(), e.begin()
	for i, tx := range []*txn.Txn{first, second} {
		if _, err := e.reg.New(tx, "STOCK", map[string]any{"sym": fmt.Sprintf("NEW%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	scanned := make(chan error, 1)
	go func() {
		_, err := e.qm.Run(first, Q{Class: "STOCK"})
		scanned <- err
	}()
	for e.tm.Locks().Waiting("class:STOCK") == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.qm.Run(second, Q{Class: "STOCK"}); !errors.Is(err, lockmgr.ErrDeadlock) {
		t.Fatalf("second write-then-scan: %v, want a deadlock", err)
	}
	_ = second.Abort()
	if err := <-scanned; err != nil {
		t.Fatalf("first write-then-scan after the victim aborted: %v", err)
	}
	e.commit(first)
}
