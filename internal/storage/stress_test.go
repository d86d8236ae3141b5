package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestStoreConcurrentStress hammers one store from many goroutines with
// mixed Begin/Insert/Update/Delete/Commit/Abort traffic, including nested
// subtransactions, then verifies the surviving records against a
// single-threaded oracle replay of every worker's op log. Run under -race
// this is the tier-1 proof that the sharded txn table, striped buffer
// pool, and the log's group commit compose without data races.
func TestStoreConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 48})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	txnsPer := 40
	if testing.Short() {
		txnsPer = 12
	}

	// Each worker records what its transactions did; the oracle replays
	// those logs single-threaded afterwards. Workers only touch their own
	// records, so the interleaving cannot change any individual outcome —
	// exactly the contract the upper transaction manager provides.
	type txLog struct {
		committed bool
		values    []string // final values owed iff committed
		dead      []string // superseded or sub-aborted values: never visible
	}
	logs := make([][]txLog, workers)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < txnsPer; i++ {
				var tl txLog
				id, err := s.Begin()
				if err != nil {
					errs <- err
					return
				}
				var rids []RID
				for k, n := 0, 1+rng.Intn(4); k < n; k++ {
					v := fmt.Sprintf("w%d-t%d-k%d", w, i, k)
					rid, err := s.Insert(id, 0, []byte(v))
					if err != nil {
						errs <- err
						return
					}
					tl.values = append(tl.values, v)
					rids = append(rids, rid)
				}
				if rng.Intn(3) == 0 {
					j := rng.Intn(len(rids))
					old := tl.values[j]
					v := old + "+u"
					nrid, err := s.Update(id, rids[j], []byte(v))
					if err != nil {
						errs <- err
						return
					}
					rids[j], tl.values[j] = nrid, v
					tl.dead = append(tl.dead, old)
				}
				if rng.Intn(4) == 0 {
					j := rng.Intn(len(rids))
					if err := s.Delete(id, rids[j]); err != nil {
						errs <- err
						return
					}
					tl.dead = append(tl.dead, tl.values[j])
					tl.values = append(tl.values[:j], tl.values[j+1:]...)
					rids = append(rids[:j], rids[j+1:]...)
				}
				if rng.Intn(3) == 0 {
					sub, err := s.BeginSub(id)
					if err != nil {
						errs <- err
						return
					}
					v := fmt.Sprintf("w%d-t%d-sub", w, i)
					if _, err := s.Insert(sub, 0, []byte(v)); err != nil {
						errs <- err
						return
					}
					if rng.Intn(2) == 0 {
						if err := s.Commit(sub); err != nil {
							errs <- err
							return
						}
						tl.values = append(tl.values, v)
					} else {
						if err := s.Abort(sub); err != nil {
							errs <- err
							return
						}
						tl.dead = append(tl.dead, v)
					}
				}
				if rng.Intn(10) < 7 {
					if err := s.Commit(id); err != nil {
						errs <- err
						return
					}
					tl.committed = true
				} else if err := s.Abort(id); err != nil {
					errs <- err
					return
				}
				logs[w] = append(logs[w], tl)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if n := len(s.ActiveTxns()); n != 0 {
		t.Fatalf("%d transactions still active after stress", n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Oracle replay, single-threaded: fold every worker's log into the
	// expected present/absent sets.
	present := map[string]bool{}
	absent := map[string]bool{}
	for _, wl := range logs {
		for _, tl := range wl {
			for _, v := range tl.dead {
				absent[v] = true
			}
			for _, v := range tl.values {
				if tl.committed {
					present[v] = true
				} else {
					absent[v] = true
				}
			}
		}
	}

	// Reopen (running recovery over the stress log) and full-scan; the
	// database must match the oracle exactly.
	re, err := Open(Options{Dir: dir, PoolSize: 48})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	found := map[string]bool{}
	err = re.ForEachRecord(func(_ RID, data []byte) error {
		found[string(data)] = true
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	for v := range present {
		if !found[v] {
			t.Errorf("committed value %q missing", v)
		}
	}
	for v := range absent {
		if found[v] {
			t.Errorf("aborted/dead value %q present", v)
		}
	}
	for v := range found {
		if !present[v] {
			t.Errorf("unexpected value %q in store", v)
		}
	}
	if n := len(re.ActiveTxns()); n != 0 {
		t.Fatalf("%d transactions active after reopen", n)
	}
}

// TestGroupCommitAmortizesFsyncs proves the acceptance criterion directly:
// with 8 concurrent durable committers, the log's group commit must issue
// fewer fsyncs than there are commits — batches amortize the force. It
// also sanity-checks the batch accounting the metrics export.
func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), PoolSize: 128, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, _, _, fsyncs0 := s.WALStats()

	const workers, txnsPer = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPer; i++ {
				id, err := s.Begin()
				if err != nil {
					errs <- err
					return
				}
				if _, err := s.Insert(id, 0, []byte(fmt.Sprintf("f%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
				if err := s.Commit(id); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const commits = workers * txnsPer
	_, _, _, fsyncs := s.WALStats()
	delta := fsyncs - fsyncs0
	if delta >= commits {
		t.Fatalf("fsyncs-per-commit >= 1: %d fsyncs for %d commits — group commit is not batching", delta, commits)
	}
	// Commits either wait for a force or return at once when a previous
	// force already covered their record; both routes amortize, so only
	// the force count itself is asserted.
	batches, waiters := s.GroupCommitStats()
	if batches == 0 || waiters < batches {
		t.Fatalf("batch accounting: %d batches, %d waiters", batches, waiters)
	}
	t.Logf("group commit: %d commits, %d fsyncs (%.2f fsyncs/commit), mean batch %.1f",
		commits, delta, float64(delta)/commits, float64(waiters)/float64(batches))
}
