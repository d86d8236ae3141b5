package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Options{Dir: t.TempDir(), PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestDiskManagerBasics(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(filepath.Join(dir, "x.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.Allocate()
	if err != nil || id != 0 {
		t.Fatalf("Allocate: %d %v", id, err)
	}
	var p Page
	p.ID = id
	p.InitPage()
	copy(p.Data[100:], "payload")
	if err := d.WritePage(&p); err != nil {
		t.Fatal(err)
	}
	var q Page
	if err := d.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Data[:], q.Data[:]) {
		t.Fatal("round-trip mismatch")
	}
	if err := d.ReadPage(99, &q); err == nil {
		t.Fatal("read of unallocated page should fail")
	}
	if d.NumPages() != 1 {
		t.Fatalf("NumPages=%d", d.NumPages())
	}
	if err := d.EnsureAllocated(4); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != 5 {
		t.Fatalf("NumPages after EnsureAllocated=%d", d.NumPages())
	}
}

func TestBufferPoolEviction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(filepath.Join(dir, "x.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pool := NewBufferPool(d, 2, nil)
	p0, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := p0.Insert([]byte("zero"))
	pool.Unpin(p0.ID, true)
	p1, _ := pool.NewPage()
	pool.Unpin(p1.ID, true)
	p2, _ := pool.NewPage() // evicts LRU (page 0), writing it back
	pool.Unpin(p2.ID, true)
	if pool.Resident() != 2 {
		t.Fatalf("Resident=%d want 2", pool.Resident())
	}
	// Re-fetch page 0 from disk; the dirty write-back must have persisted.
	got, err := pool.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := got.Read(s0)
	if err != nil || string(data) != "zero" {
		t.Fatalf("evicted page content lost: %q %v", data, err)
	}
	pool.Unpin(0, false)
}

func TestBufferPoolAllPinned(t *testing.T) {
	dir := t.TempDir()
	d, _ := OpenDisk(filepath.Join(dir, "x.db"))
	defer d.Close()
	pool := NewBufferPool(d, 1, nil)
	p0, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.NewPage(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("want ErrPoolFull, got %v", err)
	}
	pool.Unpin(p0.ID, false)
	if _, err := pool.NewPage(); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestBufferPoolUnpinPanics(t *testing.T) {
	dir := t.TempDir()
	d, _ := OpenDisk(filepath.Join(dir, "x.db"))
	defer d.Close()
	pool := NewBufferPool(d, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin of unpinned page should panic")
		}
	}()
	pool.Unpin(0, false)
}

func TestWALAppendScan(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(filepath.Join(dir, "x.log"), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*LogRecord{
		{Type: RecBegin, Txn: 1},
		{Type: RecInsert, Txn: 1, RID: RID{Page: 2, Slot: 3}, After: []byte("data")},
		{Type: RecUpdate, Txn: 1, RID: RID{Page: 2, Slot: 3}, Before: []byte("data"), After: []byte("new")},
		{Type: RecCheckpoint, Active: []uint64{1, 9}},
		{Type: RecCommit, Txn: 1},
	}
	for _, r := range recs {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var got []*LogRecord
	if err := w.Scan(0, func(r *LogRecord) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Type != recs[i].Type || got[i].Txn != recs[i].Txn ||
			got[i].RID != recs[i].RID ||
			!bytes.Equal(got[i].Before, recs[i].Before) ||
			!bytes.Equal(got[i].After, recs[i].After) ||
			len(got[i].Active) != len(recs[i].Active) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: nextLSN continues after existing records.
	w2, err := OpenWAL(filepath.Join(dir, "x.log"), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.End() == 0 {
		t.Fatal("reopened WAL lost its records")
	}
	n := 0
	if err := w2.Scan(0, func(*LogRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("after reopen scanned %d, want %d", n, len(recs))
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	w, err := OpenWAL(path, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(&LogRecord{Type: RecBegin, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(&LogRecord{Type: RecCommit, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the tail: append garbage to the active segment, simulating a
	// torn write.
	f, err := openAppend(filepath.Join(path, walSegName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2, err := OpenWAL(path, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	n := 0
	if err := w2.Scan(0, func(*LogRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("torn tail: scanned %d records, want 2", n)
	}
	// New appends after the torn tail must be readable.
	if _, err := w2.Append(&LogRecord{Type: RecBegin, Txn: 2}); err != nil {
		t.Fatal(err)
	}
	n = 0
	if err := w2.Scan(0, func(*LogRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("after re-append: scanned %d records, want 3", n)
	}
}

func TestStoreCommitVisible(t *testing.T) {
	s := openTestStore(t)
	txn, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := s.Insert(txn, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(rid)
	if err != nil || string(got) != "v1" {
		t.Fatalf("Read=%q err=%v", got, err)
	}
	if err := s.Commit(txn); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestStoreAbortUndoes(t *testing.T) {
	s := openTestStore(t)
	setup, _ := s.Begin()
	rid, _ := s.Insert(setup, []byte("keep"))
	if err := s.Commit(setup); err != nil {
		t.Fatal(err)
	}

	txn, _ := s.Begin()
	rid2, err := s.Insert(txn, []byte("temp"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(txn, rid, []byte("clobbered")); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(txn); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(rid); err != nil || string(got) != "keep" {
		t.Fatalf("update not undone: %q %v", got, err)
	}
	if _, err := s.Read(rid2); err == nil {
		t.Fatal("aborted insert still visible")
	}
}

func TestStoreDeleteAndAbortRestores(t *testing.T) {
	s := openTestStore(t)
	setup, _ := s.Begin()
	rid, _ := s.Insert(setup, []byte("precious"))
	s.Commit(setup)

	txn, _ := s.Begin()
	if err := s.Delete(txn, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(rid); err == nil {
		t.Fatal("deleted record still readable")
	}
	if err := s.Abort(txn); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(rid); err != nil || string(got) != "precious" {
		t.Fatalf("delete not undone: %q %v", got, err)
	}
}

func TestStoreUpdateMovesAcrossPages(t *testing.T) {
	s := openTestStore(t)
	txn, _ := s.Begin()
	// Nearly fill one page so the grown record must move.
	var rids []RID
	for i := 0; i < 3; i++ {
		r, err := s.Insert(txn, bytes.Repeat([]byte("f"), 1200))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	big := bytes.Repeat([]byte("G"), 2000)
	newRID, err := s.Update(txn, rids[0], big)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(newRID)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("moved record unreadable: %v", err)
	}
	if newRID == rids[0] {
		if _, err := s.Read(rids[0]); err != nil {
			t.Fatalf("in-place grow failed read: %v", err)
		}
	} else if _, err := s.Read(rids[0]); err == nil {
		t.Fatal("old RID still live after move")
	}
}

func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	committedTxn, _ := s.Begin()
	ridC, err := s.Insert(committedTxn, []byte("committed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(committedTxn); err != nil {
		t.Fatal(err)
	}
	loser, _ := s.Begin()
	ridL, err := s.Insert(loser, []byte("uncommitted"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(loser, ridC, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	// Make the loser's changes reach the log (but not commit), as a real
	// crash could leave them there.
	if err := s.wal.Flush(^uint64(0)); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: abandon s without Close (pages never flushed).

	s2, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	got, err := s2.Read(ridC)
	if err != nil || string(got) != "committed" {
		t.Fatalf("committed record after recovery: %q %v", got, err)
	}
	if _, err := s2.Read(ridL); err == nil {
		t.Fatal("loser insert survived recovery")
	}
	_ = s.wal.Close()
	_ = s.disk.Close()
}

func TestStoreRecoveryAfterRuntimeAbort(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := s.Begin()
	rid, _ := s.Insert(w, []byte("base"))
	s.Commit(w)

	a, _ := s.Begin()
	if _, err := s.Update(a, rid, []byte("scratch")); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(a); err != nil {
		t.Fatal(err)
	}
	// Crash after the abort: recovery must not resurrect "scratch".
	if err := s.wal.Flush(^uint64(0)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Read(rid)
	if err != nil || string(got) != "base" {
		t.Fatalf("after abort+crash: %q %v", got, err)
	}
	_ = s.wal.Close()
	_ = s.disk.Close()
}

func TestStoreCheckpointThenRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := s.Begin()
	rid, _ := s.Insert(txn, []byte("pre-ckpt"))
	s.Commit(txn)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	txn2, _ := s.Begin()
	rid2, _ := s.Insert(txn2, []byte("post-ckpt"))
	s.Commit(txn2)
	if err := s.wal.Flush(^uint64(0)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Read(rid); err != nil || string(got) != "pre-ckpt" {
		t.Fatalf("pre-checkpoint record: %q %v", got, err)
	}
	if got, err := s2.Read(rid2); err != nil || string(got) != "post-ckpt" {
		t.Fatalf("post-checkpoint record: %q %v", got, err)
	}
	_ = s.wal.Close()
	_ = s.disk.Close()
}

func TestStoreManyRecordsSpanPages(t *testing.T) {
	s := openTestStore(t)
	txn, _ := s.Begin()
	const n = 500
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		var err error
		rids[i], err = s.Insert(txn, []byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		got, err := s.Read(rid)
		if err != nil || string(got) != fmt.Sprintf("record-%04d", i) {
			t.Fatalf("record %d: %q %v", i, got, err)
		}
	}
}

// Property E16: after a random committed/uncommitted workload and a crash,
// recovery exposes exactly the committed writes.
func TestQuickRecoveryMatchesCommitted(t *testing.T) {
	f := func(seed []uint8) bool {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, PoolSize: 4})
		if err != nil {
			return false
		}
		committed := map[RID]string{}
		for i := 0; i+2 < len(seed); i += 3 {
			txn, err := s.Begin()
			if err != nil {
				return false
			}
			val := fmt.Sprintf("v-%d-%d", seed[i], seed[i+1])
			rid, err := s.Insert(txn, []byte(val))
			if err != nil {
				return false
			}
			switch seed[i+2] % 3 {
			case 0:
				if err := s.Commit(txn); err != nil {
					return false
				}
				committed[rid] = val
			case 1:
				if err := s.Abort(txn); err != nil {
					return false
				}
			case 2:
				// Leave in flight: a loser at crash time.
			}
		}
		if err := s.wal.Flush(^uint64(0)); err != nil {
			return false
		}
		s2, err := Open(Options{Dir: dir, PoolSize: 4})
		if err != nil {
			return false
		}
		defer s2.Close()
		for rid, want := range committed {
			got, err := s2.Read(rid)
			if err != nil || string(got) != want {
				return false
			}
		}
		_ = s.wal.Close()
		_ = s.disk.Close()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
