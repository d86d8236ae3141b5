package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenRejectsCorruptFileSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.db")
	if err := os.WriteFile(path, make([]byte, PageSize+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); err == nil {
		t.Fatal("opened database file with torn page")
	}
}

func TestStoreClosedOperationsFail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin(); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("Begin after close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := s.BeginSub(1); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("BeginSub after close: %v", err)
	}
}

func TestOperationsOnFinishedTxn(t *testing.T) {
	s := openTestStore(t)
	id, _ := s.Begin()
	rid, _ := s.Insert(id, []byte("x"))
	if err := s.Commit(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(id, []byte("y")); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("Insert on finished: %v", err)
	}
	if _, err := s.Update(id, rid, []byte("y")); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("Update on finished: %v", err)
	}
	if err := s.Delete(id, rid); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("Delete on finished: %v", err)
	}
	if err := s.Abort(id); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("Abort on finished: %v", err)
	}
}

func TestRecordTooBigRejectedEverywhere(t *testing.T) {
	s := openTestStore(t)
	id, _ := s.Begin()
	huge := make([]byte, MaxRecordSize+1)
	if _, err := s.Insert(id, huge); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("Insert: %v", err)
	}
	rid, _ := s.Insert(id, []byte("small"))
	if _, err := s.Update(id, rid, huge); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("Update: %v", err)
	}
	_ = s.Commit(id)
}

func TestActiveTxnsAndPoolStats(t *testing.T) {
	s := openTestStore(t)
	a, _ := s.Begin()
	b, _ := s.Begin()
	if got := s.ActiveTxns(); len(got) != 2 {
		t.Fatalf("ActiveTxns=%v", got)
	}
	_ = s.Commit(a)
	_ = s.Abort(b)
	if got := s.ActiveTxns(); len(got) != 0 {
		t.Fatalf("ActiveTxns after end=%v", got)
	}
	id, _ := s.Begin()
	for i := 0; i < 50; i++ {
		if _, err := s.Insert(id, bytes.Repeat([]byte("x"), 500)); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Commit(id)
	hits, misses := s.PoolStats()
	if hits+misses == 0 {
		t.Fatal("pool stats never counted")
	}
}

func TestWALScanFromOffset(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(filepath.Join(dir, "x.log"), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var lsns []uint64
	for i := 0; i < 5; i++ {
		lsn, err := w.Append(&LogRecord{Type: RecBegin, Txn: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	var got []uint64
	if err := w.Scan(lsns[2], func(r *LogRecord) error {
		got = append(got, r.Txn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 {
		t.Fatalf("scan from offset: %v", got)
	}
}

func TestWALScanCallbackError(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWAL(filepath.Join(dir, "x.log"), false, 0)
	defer w.Close()
	_, _ = w.Append(&LogRecord{Type: RecBegin, Txn: 1})
	boom := errors.New("boom")
	if err := w.Scan(0, func(*LogRecord) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("callback error lost: %v", err)
	}
}

func TestSyncWALMode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 8, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _ := s.Begin()
	rid, err := s.Insert(id, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(id); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(rid); err != nil || string(got) != "durable" {
		t.Fatalf("Read=%q err=%v", got, err)
	}
}

func TestCheckpointWithActiveTxn(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	live, _ := s.Begin()
	ridLive, _ := s.Insert(live, []byte("in-flight"))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash right after the checkpoint: the in-flight txn must roll back
	// even though the checkpoint flushed its dirty page.
	s2, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Read(ridLive); err == nil {
		t.Fatal("in-flight insert survived checkpoint + crash")
	}
	_ = s.wal.Close()
	_ = s.disk.Close()
}

func TestReadUnknownRID(t *testing.T) {
	s := openTestStore(t)
	if _, err := s.Read(RID{Page: 99, Slot: 0}); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
}

func TestRecTypeStrings(t *testing.T) {
	for rt, want := range map[RecType]string{
		RecBegin: "BEGIN", RecCommit: "COMMIT", RecAbort: "ABORT",
		RecInsert: "INSERT", RecDelete: "DELETE", RecUpdate: "UPDATE",
		RecAlloc: "ALLOC", RecCheckpoint: "CHECKPOINT",
	} {
		if rt.String() != want {
			t.Errorf("%d: %q", rt, rt.String())
		}
	}
	if RecType(99).String() == "" {
		t.Error("unknown RecType")
	}
}
