package storage

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSettledMarkStopsAtActive pins the mark's bound: a pass never moves
// it past a registered transaction, so that transaction's uncommitted
// write stays invisible to snapshots, and once the transaction has
// aborted and a pass has run, the mark moves past it.
func TestSettledMarkStopsAtActive(t *testing.T) {
	s := mvccStore(t)
	rid := commitValue(t, s, "v1")
	s.VersionGC()

	id, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(id, rid, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	s.VersionGC()
	if m := s.settledBelow.Load(); m > id {
		t.Fatalf("mark %d passed registered transaction %d", m, id)
	}
	sn := s.Snapshot()
	if got, err := s.ReadSnapshot(sn, rid); err != nil || string(got) != "v1" {
		t.Fatalf("snapshot read an uncommitted write: %q, %v", got, err)
	}
	sn.Close()

	if err := s.Abort(id); err != nil {
		t.Fatal(err)
	}
	s.VersionGC()
	if m := s.settledBelow.Load(); m <= id {
		t.Fatalf("mark %d did not pass aborted transaction %d", m, id)
	}
	sn = s.Snapshot()
	defer sn.Close()
	if got, err := s.ReadSnapshot(sn, rid); err != nil || string(got) != "v1" {
		t.Fatalf("snapshot after abort: %q, %v", got, err)
	}
}

// TestSettledMarkStopsAtUnprunedCommit: a commit the horizon has not
// passed (a snapshot older than it is open) keeps its commit-table entry,
// and the mark stays at or below it, so the old snapshot still resolves
// the writer to its timestamp and does not see the write.
func TestSettledMarkStopsAtUnprunedCommit(t *testing.T) {
	s := mvccStore(t)
	rid := commitValue(t, s, "v1")
	old := s.Snapshot()
	defer old.Close()

	id, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(id, rid, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(id); err != nil {
		t.Fatal(err)
	}
	s.VersionGC()
	if m := s.settledBelow.Load(); m > id {
		t.Fatalf("mark %d passed commit %d above the horizon", m, id)
	}
	if got, err := s.ReadSnapshot(old, rid); err != nil || string(got) != "v1" {
		t.Fatalf("old snapshot: %q, %v", got, err)
	}
}

// TestSettledReadTakesNoLock pins the settled read: a snapshot read of a
// row whose creator is below the mark, on a page without version chains,
// takes no mutex, while another transaction is open on another page. A
// row that transaction wrote does take the chain and stamp mutexes (the
// probe counts).
func TestSettledReadTakesNoLock(t *testing.T) {
	s := mvccStore(t)
	rid := commitValue(t, s, "settled")
	s.VersionGC()

	id, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	busy, err := s.Insert(id, 1, []byte("busy"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(id, busy, []byte("busier")); err != nil {
		t.Fatal(err)
	}
	if busy.Page == rid.Page {
		t.Fatal("files share a page")
	}
	var locks atomic.Int64
	probe := func() { locks.Add(1) }
	s.readLockProbe.Store(&probe)
	sn := s.Snapshot()
	defer sn.Close()
	if got, err := s.ReadSnapshot(sn, rid); err != nil || string(got) != "settled" {
		t.Fatalf("settled read: %q, %v", got, err)
	}
	if n := locks.Load(); n != 0 {
		t.Fatalf("settled read took %d read-path mutexes, want 0", n)
	}
	if _, err := s.ReadSnapshot(sn, busy); err != ErrSlotDeleted {
		t.Fatalf("uncommitted insert visible: %v", err)
	}
	if locks.Load() == 0 {
		t.Fatal("probe counted no mutex for a row with an open writer")
	}
}

// TestSettledMarkUnderChurn runs writers that begin, write and mostly
// abort, while VersionGC passes run back to back and readers check
// that no snapshot ever reads an uncommitted or aborted write. A pass
// that lands between a Begin's id draw and its registration is the
// case it is after (run it under -race). A watcher checks that the mark
// never moves down.
func TestSettledMarkUnderChurn(t *testing.T) {
	s := mvccStore(t)
	const rows, writers, readers = 8, 4, 2
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	rids := make([]RID, rows)
	for i := range rids {
		rids[i] = commitValue(t, s, "ok")
	}
	var rowMu [rows]sync.Mutex // the lock manager's part: one writer per row
	var stop atomic.Bool
	var wg, bg sync.WaitGroup
	errs := make(chan error, writers+readers+2)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i*writers + w) % rows
				rowMu[k].Lock()
				id, err := s.Begin()
				if err == nil {
					_, err = s.Update(id, rids[k], []byte(fmt.Sprintf("dirty-%d", id)))
				}
				if err == nil {
					if i%8 == 0 {
						if _, err = s.Update(id, rids[k], []byte("ok")); err == nil {
							err = s.Commit(id)
						}
					} else {
						err = s.Abort(id)
					}
				}
				rowMu[k].Unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for !stop.Load() {
				sn := s.Snapshot()
				for _, rid := range rids {
					got, err := s.ReadSnapshot(sn, rid)
					if err != nil || strings.HasPrefix(string(got), "dirty") {
						errs <- fmt.Errorf("snapshot ts=%d read %q, %v", sn.TS(), got, err)
						sn.Close()
						return
					}
				}
				sn.Close()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			last := uint64(0)
			for !stop.Load() {
				s.VersionGC()
				m := s.settledBelow.Load()
				if m < last {
					errs <- fmt.Errorf("mark moved down: %d after %d", m, last)
					return
				}
				last = m
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	bg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := s.settledBelow.Load(); m == 0 {
		t.Fatal("the mark never moved")
	}
}

// TestFollowerMarkStaysAtZero: a follower keeps the mark at 0, since a
// leader transaction that has shipped nothing yet is invisible to it.
func TestFollowerMarkStaysAtZero(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), PoolSize: 64, VersionGCInterval: -1, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.nextTxn.Store(100)
	s.VersionGC()
	if m := s.settledBelow.Load(); m != 0 {
		t.Fatalf("follower mark %d, want 0", m)
	}
}
