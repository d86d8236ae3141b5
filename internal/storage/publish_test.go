package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/seglog"
)

// TestCommitRecordPublishesOnFollower: a top-level commit record is all a
// follower needs to publish the transaction. A shipped batch cut right
// after it — nothing of the log beyond it — makes the insert visible to a
// follower snapshot.
func TestCommitRecordPublishesOnFollower(t *testing.T) {
	ld, err := Open(Options{Dir: t.TempDir(), PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	fst := shipAll(t, ld)
	id, err := ld.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := ld.Insert(id, 0, []byte("published"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.Commit(id); err != nil {
		t.Fatal(err)
	}
	// Flush whatever the commit appended after its force, so the cut
	// below is this test's and not a force's.
	if err := ld.FlushLog(); err != nil {
		t.Fatal(err)
	}
	cur := ld.LogCursor(fst.LogEnd())
	defer cur.Close()
	base, data, _, err := cur.ReadBatch(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	cut, nrecs := 0, 0
	for cut < len(data) {
		payload, size, err := seglog.NextFrame(data[cut:])
		if err != nil || size == 0 {
			t.Fatalf("frame at %d: %v", cut, err)
		}
		rec, err := unmarshalRecord(payload, base+uint64(cut))
		if err != nil {
			t.Fatal(err)
		}
		cut += size
		nrecs++
		if rec.Type == RecCommit && rec.Txn == id {
			break
		}
	}
	if n, err := fst.ReplIngest(base, data[:cut]); err != nil || n != nrecs {
		t.Fatalf("ingest through the commit record: %d of %d records, %v", n, nrecs, err)
	}
	sn := fst.Snapshot()
	defer sn.Close()
	if got, err := fst.ReadSnapshot(sn, rid); err != nil || string(got) != "published" {
		t.Fatalf("follower snapshot after the commit record: %q, %v", got, err)
	}
}

// TestCommitPublishOrder runs concurrent top-level committers (meant for
// -race) and checks the two halves of the commit-order contract. In the
// log, top-level commit timestamps rise strictly with commit-record LSN,
// and every one of them was published. In memory, a snapshot never sees a
// later timestamp before an earlier one is installed: each snapshot taken
// mid-run reads the records then being committed, and reads the same
// again after the run.
func TestCommitPublishOrder(t *testing.T) {
	s := mvccStore(t) // no background GC: every commit-table entry stays
	const writers, perWriter = 8, 150
	// inflight[w] is writer w's newest insert, committing or committed.
	var inflight [writers]atomic.Pointer[RID]
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id, err := s.Begin()
				var rid RID
				if err == nil {
					rid, err = s.Insert(id, 0, []byte(fmt.Sprintf("w%d-%d", w, i)))
				}
				if err == nil {
					inflight[w].Store(&rid)
					err = s.Commit(id)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	type read struct {
		rid  RID
		seen bool
	}
	type taken struct {
		sn    *Snapshot
		reads []read
	}
	var snaps []taken
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		tk := taken{sn: s.Snapshot()}
		for w := range inflight {
			if rid := inflight[w].Load(); rid != nil {
				_, err := s.ReadSnapshot(tk.sn, *rid)
				tk.reads = append(tk.reads, read{*rid, err == nil})
			}
		}
		snaps = append(snaps, tk)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, tk := range snaps {
		for _, r := range tk.reads {
			if _, err := s.ReadSnapshot(tk.sn, r.rid); (err == nil) != r.seen {
				t.Fatalf("snapshot at ts %d: record %v visible %v mid-run, %v after it",
					tk.sn.TS(), r.rid, r.seen, err == nil)
			}
		}
		tk.sn.Close()
	}

	var last uint64
	commits := 0
	clock := s.CommitTS()
	err := s.wal.Scan(0, func(rec *LogRecord) error {
		if rec.Type != RecCommit {
			return nil
		}
		commits++
		if rec.TS <= last {
			return fmt.Errorf("commit of txn %d at lsn %d carries ts %d after ts %d", rec.Txn, rec.LSN, rec.TS, last)
		}
		last = rec.TS
		if ts, ok := s.commitTSOf(rec.Txn); !ok || ts != rec.TS || ts > clock {
			return fmt.Errorf("txn %d: published at %d (%v), its record says %d, clock %d", rec.Txn, ts, ok, rec.TS, clock)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits != writers*perWriter || last != clock {
		t.Fatalf("%d commit records, newest ts %d, clock %d; want %d records ending at the clock",
			commits, last, clock, writers*perWriter)
	}
}

// TestCommitFaultNeverPublished: a commit whose record was appended but
// whose Commit returned an error (the storage.store.commit kill window,
// armed as an error) stays active and unpublished, even once a later
// force makes its record durable. Its transaction can still commit for
// real, or abort.
func TestCommitFaultNeverPublished(t *testing.T) {
	s := mvccStore(t)
	failCommit := func(data string) (uint64, RID) {
		t.Helper()
		id, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rid, err := s.Insert(id, 0, []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		faults.Arm(faults.NewInjector(1, faults.Trigger{Point: faults.StoreCommit, On: 1}))
		err = s.Commit(id)
		faults.Disarm()
		if err == nil {
			t.Fatal("commit under an armed storage.store.commit point succeeded")
		}
		return id, rid
	}
	invisible := func(rid RID, when string) {
		t.Helper()
		sn := s.Snapshot()
		defer sn.Close()
		if got, err := s.ReadSnapshot(sn, rid); !errors.Is(err, ErrSlotDeleted) {
			t.Fatalf("%s: failed commit's insert read %q, %v", when, got, err)
		}
	}

	retried, rid1 := failCommit("retried")
	aborted, rid2 := failCommit("aborted")
	// A later commit's force covers both failed commit records.
	commitValue(t, s, "later")
	durable := 0
	if err := s.wal.Scan(0, func(rec *LogRecord) error {
		if rec.Type == RecCommit && (rec.Txn == retried || rec.Txn == aborted) {
			durable++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if durable != 2 {
		t.Fatalf("%d of the failed commits' records are durable, want 2", durable)
	}
	invisible(rid1, "after a later force")
	invisible(rid2, "after a later force")

	if err := s.Commit(retried); err != nil {
		t.Fatalf("retry of the failed commit: %v", err)
	}
	sn := s.Snapshot()
	if got, err := s.ReadSnapshot(sn, rid1); err != nil || string(got) != "retried" {
		t.Fatalf("retried commit: %q, %v", got, err)
	}
	sn.Close()
	if err := s.Abort(aborted); err != nil {
		t.Fatalf("abort after the failed commit: %v", err)
	}
	invisible(rid2, "after the abort")
}
