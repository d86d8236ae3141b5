package storage

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lockmgr"
)

// The storage benchmarks measure the commit pipeline under concurrent
// writers. They use RunParallel, so `-cpu 1,4,8` sweeps the writer count
// the same way the detector benchmarks sweep signalling parallelism; the
// committed before/after numbers live in BENCH_storage.json.

// benchStore opens a store in a fresh temp dir sized so the working set
// stays pool-resident (the benchmarks measure the commit path, not page
// replacement).
func benchStore(b *testing.B, sync bool) *Store {
	b.Helper()
	s, err := Open(Options{Dir: b.TempDir(), PoolSize: 1024, SyncWAL: sync})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	return s
}

// benchCommit runs begin + opsPerTxn inserts + commit per iteration on
// every parallel writer.
func benchCommit(b *testing.B, sync bool, opsPerTxn, recSize int) {
	s := benchStore(b, sync)
	payload := bytes.Repeat([]byte("p"), recSize)
	batches0, _ := s.GroupCommitStats()
	_, _, _, fsyncs0 := s.WALStats()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id, err := s.Begin()
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < opsPerTxn; j++ {
				if _, err := s.Insert(id, 0, payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Commit(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	// Group-commit effectiveness: how many WAL forces (and, in sync mode,
	// fsyncs) the committed transactions actually cost.
	if batches, _ := s.GroupCommitStats(); batches > batches0 {
		b.ReportMetric(float64(b.N)/float64(batches-batches0), "commits/batch")
	}
	if sync {
		_, _, _, fsyncs := s.WALStats()
		b.ReportMetric(float64(fsyncs-fsyncs0)/float64(b.N), "fsyncs/commit")
	}
}

// BenchmarkStorage_CommitSync is the headline number: durable top-level
// commits (fsync on force) under concurrent writers.
func BenchmarkStorage_CommitSync(b *testing.B) { benchCommit(b, true, 4, 64) }

// BenchmarkStorage_CommitNoSync isolates the lock/batching costs from the
// fsync itself.
func BenchmarkStorage_CommitNoSync(b *testing.B) { benchCommit(b, false, 4, 64) }

// BenchmarkStorage_ReadParallel measures concurrent point reads of a
// pool-resident working set (no transactions on the hot path).
func BenchmarkStorage_ReadParallel(b *testing.B) {
	s := benchStore(b, false)
	id, err := s.Begin()
	if err != nil {
		b.Fatal(err)
	}
	const n = 512
	rids := make([]RID, n)
	for i := range rids {
		rids[i], err = s.Insert(id, 0, []byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Commit(id); err != nil {
		b.Fatal(err)
	}
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rid := rids[ctr.Add(1)%n]
			if _, err := s.Read(rid); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStorage_ReadSettled measures the settled read: one op is a
// snapshot ViewPage of a page of rows that no transaction has written
// since the last GC pass, while another transaction updates and commits a
// row of another file in a loop. Such a read takes no mutex beyond the
// pool's and the page latch, and allocates nothing.
func BenchmarkStorage_ReadSettled(b *testing.B) {
	s := benchStore(b, false)
	id, err := s.Begin()
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("s"), 48)
	var pages []PageID
	for len(pages) < 8 {
		rid, err := s.Insert(id, 1, payload)
		if err != nil {
			b.Fatal(err)
		}
		if len(pages) == 0 || pages[len(pages)-1] != rid.Page {
			pages = append(pages, rid.Page)
		}
	}
	hot, err := s.Insert(id, 2, payload)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Commit(id); err != nil {
		b.Fatal(err)
	}
	s.VersionGC()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Paced, so its own allocations stay out of the readers' allocs/op.
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
			wid, err := s.Begin()
			if err != nil {
				return
			}
			if _, err := s.Update(wid, hot, payload); err != nil {
				_ = s.Abort(wid)
			} else if err := s.Commit(wid); err != nil {
				return
			}
		}
	}()
	var rows atomic.Uint64
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sn := s.Snapshot()
		defer sn.Close()
		n := uint64(0)
		count := func(RID, []byte) bool { n++; return true }
		for pb.Next() {
			if err := s.ViewPage(sn, pages[ctr.Add(1)%uint64(len(pages))], count); err != nil {
				b.Fatal(err)
			}
		}
		rows.Add(n)
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	if r := rows.Load(); r > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(r), "ns/row")
	}
}

// benchmarkMixed95 measures point reads of a hot, pool-resident working
// set while a background writer pool continuously updates it in short
// strict-2PL transactions: exclusive record lock, in-place update,
// durable (group-committed, fsynced) commit, release. Writers are
// identical in both modes; the measured read path differs. "locked" takes
// a shared lock per read through the lock manager — so a read of a record
// whose writer is waiting on the commit fsync blocks for the remaining
// commit latency — while "snapshot" acquires an MVCC snapshot per read
// and goes through the versioned path, touching the lock manager not at
// all. The achieved read/write op mix is reported as reads/write (it
// lands near 20:1 for the locked baseline; snapshot mode reads far more
// because nothing blocks them — that asymmetry is the result).
func benchmarkMixed95(b *testing.B, snapshot bool) {
	s := benchStore(b, true)
	locks := lockmgr.New()
	id, err := s.Begin()
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	const writers = 4
	payload := bytes.Repeat([]byte("r"), 48)
	rids := make([]RID, n)
	res := make([]string, n)
	for i := range rids {
		rids[i], err = s.Insert(id, 0, payload)
		if err != nil {
			b.Fatal(err)
		}
		res[i] = fmt.Sprintf("rec:%d.%d", rids[i].Page, rids[i].Slot)
	}
	if err := s.Commit(id); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := seed; ; i += 17 { // co-prime stride spreads writers over the set
				select {
				case <-stop:
					return
				default:
				}
				k := i % n
				wid, err := s.Begin()
				if err != nil {
					return
				}
				if err := locks.Lock(lockmgr.TxnID(wid), res[k], lockmgr.Exclusive); err != nil {
					_ = s.Abort(wid)
					continue
				}
				_, uerr := s.Update(wid, rids[k], payload)
				if uerr != nil {
					_ = s.Abort(wid)
				} else if err := s.Commit(wid); err != nil {
					return
				}
				locks.ReleaseAll(lockmgr.TxnID(wid))
				writes.Add(1)
			}
		}(uint64(w) * 5)
	}
	var ctr, readers atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Reader lock owners must be distinct per goroutine and disjoint
		// from store transaction ids.
		reader := lockmgr.TxnID(1<<40 + readers.Add(1))
		for pb.Next() {
			k := ctr.Add(1) % n
			if snapshot {
				sn := s.Snapshot()
				if _, err := s.ReadSnapshot(sn, rids[k]); err != nil {
					b.Fatal(err)
				}
				sn.Close()
			} else {
				if err := locks.Lock(reader, res[k], lockmgr.Shared); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Read(rids[k]); err != nil {
					b.Fatal(err)
				}
				if err := locks.Unlock(reader, res[k]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	if w := writes.Load(); w > 0 {
		b.ReportMetric(float64(b.N)/float64(w), "reads/write")
	}
}

// BenchmarkStorage_Mixed95Read compares the 2PL shared-lock read path with
// the MVCC snapshot read path under a mixed read/write workload; `-cpu
// 1,4,8` sweeps the reader count.
func BenchmarkStorage_Mixed95Read(b *testing.B) {
	b.Run("locked", func(b *testing.B) { benchmarkMixed95(b, false) })
	b.Run("snapshot", func(b *testing.B) { benchmarkMixed95(b, true) })
}

// BenchmarkStorage_MixedSubTxn exercises the full transaction shape rules
// produce: insert, self-update, a committed subtransaction, then a
// top-level commit (no fsync, so the nesting overhead dominates).
func BenchmarkStorage_MixedSubTxn(b *testing.B) {
	s := benchStore(b, false)
	payload := bytes.Repeat([]byte("m"), 48)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id, err := s.Begin()
			if err != nil {
				b.Fatal(err)
			}
			rid, err := s.Insert(id, 0, payload)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Update(id, rid, payload[:32]); err != nil {
				b.Fatal(err)
			}
			sub, err := s.BeginSub(id)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Insert(sub, 0, payload[:16]); err != nil {
				b.Fatal(err)
			}
			if err := s.Commit(sub); err != nil {
				b.Fatal(err)
			}
			if err := s.Commit(id); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStorage_HotRecordUpdate measures one-update commits to a single
// record whose version chain holds every update since the last GC pass:
// the sub-benchmark's size is the number of updates per GC interval (the
// chain is collected, untimed, every that many operations). A push is an
// append and a prune works in proportion to what it reclaims, so ns/op
// must not grow with the size.
func BenchmarkStorage_HotRecordUpdate(b *testing.B) {
	for _, perGC := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("updates=%d", perGC), func(b *testing.B) {
			s, err := Open(Options{Dir: b.TempDir(), PoolSize: 64, VersionGCInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = s.Close() })
			payload := bytes.Repeat([]byte("h"), 24)
			id, err := s.Begin()
			if err != nil {
				b.Fatal(err)
			}
			rid, err := s.Insert(id, 0, payload)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Commit(id); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%perGC == 0 {
					b.StopTimer()
					s.VersionGC()
					b.StartTimer()
				}
				id, err := s.Begin()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Update(id, rid, payload); err != nil {
					b.Fatal(err)
				}
				if err := s.Commit(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
