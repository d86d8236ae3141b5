package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faults"
)

// Checkpoint/recovery interplay: fuzzy checkpoints racing the group-commit
// flusher (with and without a crash landing mid-flush), the bounded-tail
// guarantee (recovery after a checkpoint scans only the records behind it),
// and segment archiving. The recovery benchmark at the bottom measures what
// the checkpoint buys.

// TestCheckpointRacesGroupCommit drives committers and a checkpoint loop
// concurrently — the fuzzy checkpoint quiesces nothing, so under -race this
// is the data-race gate for the DPT/ATT walks against live commits.
func TestCheckpointRacesGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	const writers, txnsPer = 8, 10
	done := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPer; i++ {
				txn, err := s.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				if _, err := s.Insert(txn, 0, []byte(fmt.Sprintf("w%d-t%d", w, i))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := s.Commit(txn); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	ckptWG.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := map[string]bool{}
	if err := s2.ForEachRecord(func(_ RID, data []byte) error {
		got[string(data)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < txnsPer; i++ {
			if key := fmt.Sprintf("w%d-t%d", w, i); !got[key] {
				t.Fatalf("committed record %s lost across checkpointed restart", key)
			}
		}
	}
}

// TestCheckpointRacesGroupCommitCrash is the crash shape: a kill lands in
// the group-commit flusher while a checkpoint loop runs concurrently. The
// reopened store must hold every transaction whose Commit returned, none
// whose Commit failed, and all-or-nothing for those interrupted mid-flush
// — a checkpoint taken in the same instant must not leak a half-flushed
// batch into the durable image.
func TestCheckpointRacesGroupCommitCrash(t *testing.T) {
	dir := t.TempDir()
	// SyncWAL routes commits through the group-commit flusher — the code
	// path the kill point lives on.
	s, err := Open(Options{Dir: dir, PoolSize: 64, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}

	faults.Arm(faults.NewInjector(42, faults.Trigger{
		Point: faults.StoreGroupFlush, On: 4, Limit: 1, Fault: faults.Fault{Crash: true},
	}))
	defer faults.Disarm()

	const writers, txnsPer = 8, 4
	type outcome int
	const (
		committed outcome = iota // Commit returned nil: must survive
		failed                   // Commit errored (sealed WAL): must not
		crashed                  // killed mid-flush: all-or-nothing
	)
	results := make([][txnsPer]outcome, writers)
	done := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// Past the kill the WAL is sealed and checkpoints fail; that
			// is expected, not a test failure. The kill itself can also
			// surface here: Checkpoint waits on the flusher for durability,
			// and whichever goroutine is in waitDurable when the batch
			// crashes receives the re-panicked kill.
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := faults.AsCrash(r); !ok {
							panic(r)
						}
					}
				}()
				_ = s.Checkpoint()
			}()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPer; i++ {
				crash := func() (c bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := faults.AsCrash(r); !ok {
								panic(r)
							}
							c = true
						}
					}()
					txn, err := s.Begin()
					if err != nil {
						results[w][i] = failed
						return
					}
					for part := 0; part < 2; part++ {
						if _, err := s.Insert(txn, 0, []byte(fmt.Sprintf("c%d-%d-p%d", w, i, part))); err != nil {
							results[w][i] = failed
							return
						}
					}
					if err := s.Commit(txn); err != nil {
						results[w][i] = failed
						return
					}
					results[w][i] = committed
					return
				}()
				if crash {
					results[w][i] = crashed
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	ckptWG.Wait()
	faults.Disarm()
	// The crashed store is abandoned un-Closed, as a killed process would
	// leave it.

	s2, err := Open(Options{Dir: dir, PoolSize: 64})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	got := map[string]bool{}
	if err := s2.ForEachRecord(func(_ RID, data []byte) error {
		got[string(data)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sawCrash := false
	for w := 0; w < writers; w++ {
		for i := 0; i < txnsPer; i++ {
			a, b := got[fmt.Sprintf("c%d-%d-p0", w, i)], got[fmt.Sprintf("c%d-%d-p1", w, i)]
			switch results[w][i] {
			case committed:
				if !a || !b {
					t.Errorf("writer %d txn %d: Commit returned, records lost (%v,%v)", w, i, a, b)
				}
			case failed:
				if a || b {
					t.Errorf("writer %d txn %d: Commit failed, records survived (%v,%v)", w, i, a, b)
				}
			case crashed:
				sawCrash = true
				if a != b {
					t.Errorf("writer %d txn %d: interrupted commit is torn (%v,%v)", w, i, a, b)
				}
			}
		}
	}
	if !sawCrash {
		t.Fatal("the injected crash never fired; the schedule tests nothing")
	}
	if n := s2.ActiveTxns(); len(n) != 0 {
		t.Fatalf("recovery left %d active txns", len(n))
	}
}

// TestRecoveryReplaysOnlyTail pins the checkpoint's bounded-recovery
// guarantee: after a checkpoint, restart recovery scans only the log tail
// behind it, not the whole history.
func TestRecoveryReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var preRID, postRID RID
	for i := 0; i < 100; i++ {
		txn, _ := s.Begin()
		preRID, err = s.Insert(txn, 0, []byte(fmt.Sprintf("pre-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		txn, _ := s.Begin()
		postRID, err = s.Insert(txn, 0, []byte(fmt.Sprintf("post-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushLog(); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: a clean shutdown would flush pages and hide
	// how much log recovery actually has to read.

	s2, err := Open(Options{Dir: dir, PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	stats := s2.RecoveryStats()
	if stats.RedoStartLSN == 0 {
		t.Fatal("recovery ignored the checkpoint: redo started at LSN 0")
	}
	// The tail is 5 transactions (begin/insert/commit each) plus the
	// checkpoint record — nowhere near the 100 pre-checkpoint
	// transactions' ~300 records.
	if stats.RecordsScanned > 40 {
		t.Fatalf("recovery scanned %d records; checkpoint should bound the tail (~16)",
			stats.RecordsScanned)
	}
	if got, err := s2.Read(preRID); err != nil || string(got) != "pre-099" {
		t.Fatalf("pre-checkpoint record: %q %v", got, err)
	}
	if got, err := s2.Read(postRID); err != nil || string(got) != "post-4" {
		t.Fatalf("post-checkpoint record: %q %v", got, err)
	}
}

// TestCheckpointArchivesSealedSegments exercises the segmented WAL: small
// segments roll under load, a checkpoint archives the sealed segments
// below its redo point (pruning what no follower needs), and the retained
// log start advances — while every committed record stays readable across
// a restart.
func TestCheckpointArchivesSealedSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 64, WALSegBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]RID, 0, 200)
	for i := 0; i < 200; i++ {
		txn, _ := s.Begin()
		rid, err := s.Insert(txn, 0, []byte(fmt.Sprintf("seg-%03d-%032d", i, i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if sealed, _ := s.wal.SegmentCounts(); sealed == 0 {
		t.Fatal("load never rolled a segment; WALSegBytes not honored")
	}
	if s.LogStart() != 0 {
		t.Fatalf("log starts at %d before any checkpoint", s.LogStart())
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.LogStart() == 0 {
		t.Fatal("checkpoint retired no segments")
	}
	for i, rid := range rids {
		if got, err := s.Read(rid); err != nil || string(got) != fmt.Sprintf("seg-%03d-%032d", i, i) {
			t.Fatalf("record %d after retire: %q %v", i, got, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, PoolSize: 64, WALSegBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.LogStart() == 0 {
		t.Fatal("pruned log start did not survive restart")
	}
	for i, rid := range rids {
		if got, err := s2.Read(rid); err != nil || string(got) != fmt.Sprintf("seg-%03d-%032d", i, i) {
			t.Fatalf("record %d after restart: %q %v", i, got, err)
		}
	}
}

// copyDir clones a store directory so each benchmark iteration recovers
// from an identical on-disk image.
func copyDir(tb testing.TB, src, dst string) {
	tb.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkStorage_Recovery measures restart recovery over a 2000-commit
// history, with and without a late checkpoint — the recovery-time-vs-WAL-
// length numbers in EXPERIMENTS.md. The dirty image is rebuilt from a
// template copy each iteration, so every run recovers the same log.
func BenchmarkStorage_Recovery(b *testing.B) {
	for _, mode := range []string{"nockpt", "ckpt"} {
		b.Run(mode, func(b *testing.B) {
			tmpl := b.TempDir()
			s, err := Open(Options{Dir: tmpl, PoolSize: 256})
			if err != nil {
				b.Fatal(err)
			}
			const txns = 2000
			for i := 0; i < txns; i++ {
				txn, _ := s.Begin()
				if _, err := s.Insert(txn, 0, []byte(fmt.Sprintf("rec-%06d", i))); err != nil {
					b.Fatal(err)
				}
				if err := s.Commit(txn); err != nil {
					b.Fatal(err)
				}
				if mode == "ckpt" && i == txns-50 {
					if err := s.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := s.FlushLog(); err != nil {
				b.Fatal(err)
			}
			// Abandoned un-Closed: the image recovers as after a crash.

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), fmt.Sprintf("it%d", i))
				copyDir(b, tmpl, dir)
				b.StartTimer()
				s2, err := Open(Options{Dir: dir, PoolSize: 256})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				stats := s2.RecoveryStats()
				b.ReportMetric(float64(stats.RecordsScanned), "records-scanned")
				if err := s2.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// TestRedoSkipsOperationsAlreadyOnPage: redo must not replay onto a page an
// operation its page LSN says is already there. Replaying anyway is not
// idempotent in space: here an insert whose slot a later delete freed, and
// whose bytes a later insert reused, no longer fits the page it is
// replayed onto.
func TestRedoSkipsOperationsAlreadyOnPage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(c byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = c
		}
		return b
	}
	inTx := func(fn func(id uint64) error) {
		t.Helper()
		id, err := s.Begin()
		if err == nil {
			err = fn(id)
		}
		if err == nil {
			err = s.Commit(id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	inTx(func(id uint64) error { _, err := s.Insert(id, 0, fill('f', 2000)); return err })
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var a1, a2, c RID
	inTx(func(id uint64) (err error) {
		if a1, err = s.Insert(id, 0, fill('a', 1000)); err == nil {
			a2, err = s.Insert(id, 0, fill('a', 1000))
		}
		return err
	})
	inTx(func(id uint64) error {
		if err := s.Delete(id, a1); err != nil {
			return err
		}
		return s.Delete(id, a2)
	})
	inTx(func(id uint64) (err error) { c, err = s.Insert(id, 0, fill('c', 2000)); return err })
	if c.Page != a2.Page || c.Slot == a2.Slot {
		t.Fatalf("layout: a2 %v, c %v; want c on a2's page in another slot", a2, c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatalf("recovery after a clean close: %v", err)
	}
	defer re.Close()
	if got, err := re.Read(c); err != nil || string(got) != string(fill('c', 2000)) {
		t.Fatalf("read %v after recovery: %d bytes, %v", c, len(got), err)
	}
	if _, err := re.Read(a2); err == nil {
		t.Fatalf("deleted record %v back after recovery", a2)
	}
}
