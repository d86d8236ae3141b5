package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// mvccStore opens a store with the background version GC disabled, so the
// tests control collection explicitly through VersionGC.
func mvccStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Options{Dir: t.TempDir(), PoolSize: 64, VersionGCInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// commitValue inserts data in its own transaction and commits.
func commitValue(t *testing.T, s *Store, data string) RID {
	t.Helper()
	id, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := s.Insert(id, 0, []byte(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(id); err != nil {
		t.Fatal(err)
	}
	return rid
}

// TestSnapshotVisibility walks the core visibility rules one by one: a
// snapshot sees exactly the committed state as of its timestamp —
// in-place updates, deletes and uncommitted writes after the snapshot are
// all invisible, while later snapshots see them.
func TestSnapshotVisibility(t *testing.T) {
	s := mvccStore(t)
	rid := commitValue(t, s, "v1")

	snV1 := s.Snapshot()
	defer snV1.Close()

	// In-place update to v2 after the snapshot.
	id, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(id, rid, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: invisible even to a brand-new snapshot.
	snMid := s.Snapshot()
	if got, err := s.ReadSnapshot(snMid, rid); err != nil || string(got) != "v1" {
		t.Fatalf("uncommitted update visible: %q, %v", got, err)
	}
	snMid.Close()
	if err := s.Commit(id); err != nil {
		t.Fatal(err)
	}

	// Old snapshot still sees v1; a fresh one sees v2.
	if got, err := s.ReadSnapshot(snV1, rid); err != nil || string(got) != "v1" {
		t.Fatalf("snapshot not repeatable: %q, %v", got, err)
	}
	snV2 := s.Snapshot()
	if got, err := s.ReadSnapshot(snV2, rid); err != nil || string(got) != "v2" {
		t.Fatalf("fresh snapshot stale: %q, %v", got, err)
	}
	snV2.Close()

	// Delete after the snapshots: v1 snapshot still reads v1.
	id2, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id2, rid); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(id2); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadSnapshot(snV1, rid); err != nil || string(got) != "v1" {
		t.Fatalf("snapshot lost record after delete: %q, %v", got, err)
	}
	snAfter := s.Snapshot()
	if _, err := s.ReadSnapshot(snAfter, rid); !errors.Is(err, ErrSlotDeleted) {
		t.Fatalf("deleted record visible to fresh snapshot: %v", err)
	}
	snAfter.Close()
}

// TestSnapshotAbortInvisible proves aborted writes never surface on the
// snapshot path, whether the snapshot predates or postdates the abort.
func TestSnapshotAbortInvisible(t *testing.T) {
	s := mvccStore(t)
	rid := commitValue(t, s, "keep")

	id, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(id, rid, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(id, 0, []byte("doomed-insert")); err != nil {
		t.Fatal(err)
	}
	snDuring := s.Snapshot()
	if got, err := s.ReadSnapshot(snDuring, rid); err != nil || string(got) != "keep" {
		t.Fatalf("in-flight write visible: %q, %v", got, err)
	}
	if err := s.Abort(id); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadSnapshot(snDuring, rid); err != nil || string(got) != "keep" {
		t.Fatalf("after abort, old snapshot: %q, %v", got, err)
	}
	snDuring.Close()

	sn := s.Snapshot()
	defer sn.Close()
	if err := s.ForEachRecordAt(sn, func(_ RID, data []byte) error {
		if strings.HasPrefix(string(data), "doomed") {
			return fmt.Errorf("aborted value %q visible", data)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSubTxnVisibility: a committed subtransaction's writes stay
// invisible to other snapshots until the whole family's root commits, and
// become visible atomically with it.
func TestSnapshotSubTxnVisibility(t *testing.T) {
	s := mvccStore(t)
	rid := commitValue(t, s, "base")

	root, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.BeginSub(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(sub, rid, []byte("sub")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(sub); err != nil {
		t.Fatal(err)
	}
	// Sub committed, root still active: invisible.
	sn := s.Snapshot()
	if got, err := s.ReadSnapshot(sn, rid); err != nil || string(got) != "base" {
		t.Fatalf("merged sub write visible before root commit: %q, %v", got, err)
	}
	sn.Close()
	if err := s.Commit(root); err != nil {
		t.Fatal(err)
	}
	sn2 := s.Snapshot()
	defer sn2.Close()
	if got, err := s.ReadSnapshot(sn2, rid); err != nil || string(got) != "sub" {
		t.Fatalf("merged sub write missing after root commit: %q, %v", got, err)
	}
}

// TestSnapshotForSeesMergedSubWrites: a family snapshot must see writes
// made by the family's own committed subtransactions. The sub has merged
// into its parent and left the active table, so its stamp resolves only
// through the mergedInto forwarding walk — a family check that starts from
// the raw stamp instead of the walked-to active ancestor goes blind here,
// and rule conditions (which evaluate against SnapshotFor of the
// triggering root) stop seeing the very write that fired them.
func TestSnapshotForSeesMergedSubWrites(t *testing.T) {
	s := mvccStore(t)
	rid := commitValue(t, s, "base")

	root, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.BeginSub(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(sub, rid, []byte("sub-write")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(sub); err != nil {
		t.Fatal(err)
	}
	sn := s.SnapshotFor(root)
	if got, err := s.ReadSnapshot(sn, rid); err != nil || string(got) != "sub-write" {
		t.Fatalf("family snapshot blind to committed sub's write: %q, %v", got, err)
	}
	sn.Close()

	// Two forwarding hops: a grandchild commits into a still-active child.
	mid, err := s.BeginSub(root)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := s.BeginSub(mid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(inner, rid, []byte("inner-write")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(inner); err != nil {
		t.Fatal(err)
	}
	sn2 := s.SnapshotFor(root)
	if got, err := s.ReadSnapshot(sn2, rid); err != nil || string(got) != "inner-write" {
		t.Fatalf("family snapshot blind through two merge hops: %q, %v", got, err)
	}
	sn2.Close()

	// Other families and plain observers still see only committed state.
	stranger, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range []*Snapshot{s.Snapshot(), s.SnapshotFor(stranger)} {
		if got, err := s.ReadSnapshot(sn, rid); err != nil || string(got) != "base" {
			t.Fatalf("uncommitted family write leaked: %q, %v", got, err)
		}
		sn.Close()
	}
	if err := s.Abort(stranger); err != nil {
		t.Fatal(err)
	}

	if err := s.Commit(mid); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(root); err != nil {
		t.Fatal(err)
	}
	final := s.Snapshot()
	defer final.Close()
	if got, err := s.ReadSnapshot(final, rid); err != nil || string(got) != "inner-write" {
		t.Fatalf("after root commit: %q, %v", got, err)
	}
}

// TestVersionGCKeepsCommitWindowEntries replays Commit's steps by hand and
// pauses between publishCommits and forget — the window where a durably
// committed transaction still sits in the active table. A GC pass in that
// window must not prune its commit-table entry: a snapshot resolving the
// writer would miss in the commit table, fall through to the active table,
// and wrongly treat the committed write as uncommitted (invisible).
func TestVersionGCKeepsCommitWindowEntries(t *testing.T) {
	s := mvccStore(t)
	rid := commitValue(t, s, "v1")

	id, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(id, rid, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	tx, err := s.takeFinisher(id, "commit")
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := s.appendCommit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.waitDurable(lsn + 1); err != nil {
		t.Fatal(err)
	}
	s.publishCommits()

	// In the window. No snapshot is live, so the horizon is the clock and
	// the new entry's timestamp is at the horizon — prunable by age, but
	// protected by its active registration.
	s.VersionGC()
	s.tsMu.Lock()
	_, present := s.cts[id]
	s.tsMu.Unlock()
	if !present {
		t.Fatal("GC pruned the cts entry of a committed transaction still in its commit window")
	}
	sn := s.Snapshot()
	if got, err := s.ReadSnapshot(sn, rid); err != nil || string(got) != "v2" {
		t.Fatalf("committed write invisible during its commit window: %q, %v", got, err)
	}
	sn.Close()

	// Finish the commit; once forgotten, the entry is prunable again and
	// the write survives as frozen state.
	s.releaseUndo(tx.res)
	s.forget(tx)
	s.VersionGC()
	s.tsMu.Lock()
	_, present = s.cts[id]
	s.tsMu.Unlock()
	if present {
		t.Fatal("cts entry survived GC after the transaction was forgotten")
	}
	sn2 := s.Snapshot()
	defer sn2.Close()
	if got, err := s.ReadSnapshot(sn2, rid); err != nil || string(got) != "v2" {
		t.Fatalf("committed write lost after GC: %q, %v", got, err)
	}
}

// TestVersionGCPinnedBySnapshot is the GC-correctness contract: a
// long-lived snapshot pins the versions it can still see — VersionGC must
// not reclaim them and the snapshot must keep reading its value — and
// closing the snapshot releases them for the next GC pass, observable
// through the reclaimed counter.
func TestVersionGCPinnedBySnapshot(t *testing.T) {
	s := mvccStore(t)
	rid := commitValue(t, s, "gen-0")

	pin := s.Snapshot() // pins gen-0
	const gens = 12
	for g := 1; g <= gens; g++ {
		id, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update(id, rid, []byte(fmt.Sprintf("gen-%d", g))); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(id); err != nil {
			t.Fatal(err)
		}
	}

	// With the pin alive, nothing at or above its horizon may go.
	_, _, reclaimed0 := s.MVCCStats()
	s.VersionGC()
	if got, err := s.ReadSnapshot(pin, rid); err != nil || string(got) != "gen-0" {
		t.Fatalf("pinned version lost to GC: %q, %v", got, err)
	}

	// Closing the pin frees the whole history behind the latest version.
	pin.Close()
	freed := s.VersionGC()
	if freed == 0 {
		t.Fatal("GC reclaimed nothing after the pinning snapshot closed")
	}
	_, _, reclaimed := s.MVCCStats()
	if reclaimed <= reclaimed0 {
		t.Fatalf("reclaimed counter did not advance: %d -> %d", reclaimed0, reclaimed)
	}
	// Latest state is of course still there.
	sn := s.Snapshot()
	defer sn.Close()
	want := fmt.Sprintf("gen-%d", gens)
	if got, err := s.ReadSnapshot(sn, rid); err != nil || string(got) != want {
		t.Fatalf("latest version after GC: %q, %v (want %q)", got, err, want)
	}
}

// TestSnapshotRecovery: after a crash-close and reopen, the commit clock
// is restored from the commit records, snapshots work over the recovered
// state, and the snapshot scan agrees with the unfiltered latest scan
// (all survivors are frozen — no version chains cross a crash).
func TestSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 32, VersionGCInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 8; i++ {
		id, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rid, err := s.Insert(id, 0, []byte(fmt.Sprintf("r-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := s.Update(id, rid, []byte(fmt.Sprintf("r-%d-u", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(id); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Leave one transaction in flight across the "crash".
	loser, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(loser, rids[0], []byte("loser")); err != nil {
		t.Fatal(err)
	}
	ctsBefore := s.CommitTS()
	if ctsBefore == 0 {
		t.Fatal("commit clock never advanced")
	}
	// Crash: abandon the store without Close, exactly as the faulttest
	// harness does — the in-flight update must not survive recovery.
	_ = loser

	re, err := Open(Options{Dir: dir, PoolSize: 32, VersionGCInterval: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	// The clock restores from the timestamps the commit records carry.
	// Each commit returned only after its own record was forced, so every
	// one survives and recovery lands exactly on the clock.
	if got := re.CommitTS(); got != ctsBefore {
		t.Fatalf("commit clock over recovery: %d, want %d", got, ctsBefore)
	}
	sn := re.Snapshot()
	defer sn.Close()
	if got, err := re.ReadSnapshot(sn, rids[0]); err != nil || string(got) != "r-0-u" {
		t.Fatalf("recovered read: %q, %v", got, err)
	}
	snapScan := map[RID]string{}
	if err := re.ForEachRecordAt(sn, func(rid RID, data []byte) error {
		snapScan[rid] = string(data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	latest := map[RID]string{}
	if err := re.ForEachRecordLatest(func(rid RID, data []byte) error {
		latest[rid] = string(data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(snapScan) != len(latest) {
		t.Fatalf("scan mismatch after recovery: snapshot %d records, latest %d", len(snapScan), len(latest))
	}
	for rid, v := range latest {
		if snapScan[rid] != v {
			t.Fatalf("scan mismatch at %v: snapshot %q latest %q", rid, snapScan[rid], v)
		}
	}
}

// TestSnapshotReadersUnderWriters is the -race stress for the lock-free
// read path: 8 writers continuously rewrite record pairs (both members in
// one transaction, stamped with the same sequence number) while readers
// assert, per snapshot: (1) pair atomicity — both members show the same
// sequence; (2) repeatability — re-reading under the same snapshot yields
// the same bytes; (3) prefix consistency — a snapshot taken later never
// observes an older pair sequence than one taken earlier by the same
// goroutine.
func TestSnapshotReadersUnderWriters(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const pairs = 4
	const writers = 8
	const readers = 4
	rounds := 150
	if testing.Short() {
		rounds = 40
	}
	// Readers run a fixed iteration budget rather than spinning until the
	// writers finish: on a single-CPU box an unbounded reader spin loop
	// starves the writers (and the group-commit forcer) of run time.
	rrounds := rounds

	type pair struct{ a, b RID }
	var prs [pairs]pair
	for i := range prs {
		prs[i] = pair{commitValue(t, s, "p0"), commitValue(t, s, "p0")}
	}
	// The storage layer does not serialize writers — that is the txn
	// layer's 2PL job — so each pair gets a mutex standing in for its
	// exclusive lock, held across commit (strict 2PL).
	var pmu [pairs]sync.Mutex

	var stop atomic.Bool
	var wwg, rwg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + w)))
			for i := 0; i < rounds; i++ {
				pi := rng.Intn(pairs)
				p := prs[pi]
				v := []byte(fmt.Sprintf("p%d", i*writers+w+1))
				pmu[pi].Lock()
				id, err := s.Begin()
				if err != nil {
					pmu[pi].Unlock()
					errs <- err
					return
				}
				if _, err := s.Update(id, p.a, v); err != nil {
					pmu[pi].Unlock()
					errs <- err
					return
				}
				if _, err := s.Update(id, p.b, v); err != nil {
					pmu[pi].Unlock()
					errs <- err
					return
				}
				if rng.Intn(5) == 0 {
					err = s.Abort(id)
				} else {
					err = s.Commit(id)
				}
				pmu[pi].Unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			lastTS := uint64(0)
			for it := 0; it < rrounds && !stop.Load(); it++ {
				sn := s.Snapshot()
				if sn.TS() < lastTS {
					errs <- fmt.Errorf("snapshot timestamps regressed: %d after %d", sn.TS(), lastTS)
					sn.Close()
					return
				}
				lastTS = sn.TS()
				for i := range prs {
					a1, err := s.ReadSnapshot(sn, prs[i].a)
					if err != nil {
						errs <- err
						sn.Close()
						return
					}
					b, err := s.ReadSnapshot(sn, prs[i].b)
					if err != nil {
						errs <- err
						sn.Close()
						return
					}
					if !bytes.Equal(a1, b) {
						errs <- fmt.Errorf("pair %d torn under snapshot ts=%d: %q vs %q", i, sn.TS(), a1, b)
						sn.Close()
						return
					}
					a2, err := s.ReadSnapshot(sn, prs[i].a)
					if err != nil {
						errs <- err
						sn.Close()
						return
					}
					if !bytes.Equal(a1, a2) {
						errs <- fmt.Errorf("non-repeatable read under snapshot ts=%d: %q then %q", sn.TS(), a1, a2)
						sn.Close()
						return
					}
				}
				sn.Close()
			}
		}(r)
	}

	// Writers and readers finish their own budgets; stop only propagates
	// early exits on error.
	wwg.Wait()
	rwg.Wait()
	stop.Store(true)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Final state: every pair consistent in the latest committed state.
	sn := s.Snapshot()
	defer sn.Close()
	for i := range prs {
		a, err := s.ReadSnapshot(sn, prs[i].a)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.ReadSnapshot(sn, prs[i].b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("final pair %d torn: %q vs %q", i, a, b)
		}
		if _, err := strconv.Atoi(strings.TrimPrefix(string(a), "p")); err != nil {
			t.Fatalf("final pair %d garbled: %q", i, a)
		}
	}
}
