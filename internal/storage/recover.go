package storage

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
)

// RecoveryStats reports what the last Open's recovery pass actually did.
// RecordsScanned is the fuzzy-checkpoint proof: after a checkpoint it
// counts only the log tail above the redo point, not the whole log.
type RecoveryStats struct {
	RedoStartLSN   uint64        // LSN the redo scan started at
	LogEndLSN      uint64        // log end when recovery finished
	RecordsScanned int           // records the scan visited
	OpsRedone      int           // page operations replayed
	LosersUndone   int           // loser transactions rolled back (leader)
	Pending        int           // unresolved transactions rebuilt as pending (follower)
	Parallelism    int           // redo workers used
	Elapsed        time.Duration // wall time for the whole pass
}

// txnInfo accumulates one transaction's fate during the log scan.
type txnInfo struct {
	committed bool
	aborted   bool   // rollback completed (abort record present)
	hasTS     bool   // commit-timestamp record survived
	parent    uint64 // zero for top-level transactions
	firstLSN  uint64 // begin-record LSN (or ATT value for pre-redo txns)
	forward   []*LogRecord
	clrs      int
}

// remaining returns the forward operations not yet compensated: a runtime
// abort undoes in strict reverse order, so the last clrs forward ops are
// already undone.
func (t *txnInfo) remaining() []*LogRecord {
	r := t.forward
	if t.clrs > 0 && t.clrs <= len(r) {
		r = r[:len(r)-t.clrs]
	}
	return r
}

// recover replays the log in the ARIES style: redo every operation —
// forward and compensation alike — whose effect is missing (repeating
// history, guarded by page LSNs), then undo the still-uncompensated
// operations of every transaction that neither committed nor completed its
// rollback. Each recovery undo logs its own CLR and the loser finally gets
// an abort record, so recovery itself is crash-safe and idempotent.
//
// With a fuzzy checkpoint in the manifest the scan starts at the
// checkpoint's redo point instead of zero: the dirty-page-table bound
// guarantees every unpersisted page change is at or above it, and the
// active-transaction-table bound guarantees every unresolved transaction's
// complete history is too (see checkpoint.go). Redo is parallelized by
// page: operations are partitioned by PageID so per-page LSN order is
// preserved while disjoint pages replay concurrently.
//
// A follower store recovers differently after the redo pass: unresolved
// transactions' operations were never applied to its pages (the deferred-
// apply invariant), so instead of undoing — there is nothing to undo, and
// a follower must not append to its log — it rebuilds them as pending
// placeholders that later shipped commit/abort records resolve.
func (s *Store) recover() error {
	start := time.Now()
	follower := s.follower.Load()

	// The manifest's checkpoint image names the redo point. A damaged or
	// implausible image falls back to scanning everything still retained.
	var img *ckptImage
	if _, raw := s.wal.CheckpointInfo(); len(raw) > 0 {
		if im, err := decodeCkptImage(raw); err == nil &&
			im.RedoLSN <= s.wal.End() && im.RedoLSN >= s.wal.Start() {
			img = im
		}
	}
	redoFrom := s.wal.Start()
	var maxTxn, maxTS uint64
	txns := map[uint64]*txnInfo{}
	get := func(id uint64) *txnInfo {
		t := txns[id]
		if t == nil {
			t = &txnInfo{}
			txns[id] = t
		}
		return t
	}
	if img != nil {
		redoFrom = img.RedoLSN
		maxTxn, maxTS = img.NextTxn, img.CommitTS
		// Seed the active-transaction table. Strictly redundant — the redo
		// point is at or below every member's begin record, so the scan
		// rebuilds each entry — but it keeps recovery robust if a bound is
		// ever conservative rather than exact.
		for _, t := range img.Active {
			ti := get(t.ID)
			ti.parent = t.Parent
			ti.firstLSN = t.FirstLSN
			if t.ID > maxTxn {
				maxTxn = t.ID
			}
		}
	}

	var allOps []*LogRecord
	scanned := 0
	err := s.wal.Scan(redoFrom, func(rec *LogRecord) error {
		scanned++
		if rec.Txn > maxTxn {
			maxTxn = rec.Txn
		}
		switch rec.Type {
		case RecBegin:
			t := get(rec.Txn)
			t.parent = rec.Parent
			t.firstLSN = rec.LSN
		case RecCommit:
			get(rec.Txn).committed = true
		case RecCommitTS:
			get(rec.Txn).hasTS = true
			if rec.TS > maxTS {
				maxTS = rec.TS
			}
		case RecAbort:
			get(rec.Txn).aborted = true
		case RecInsert, RecDelete, RecUpdate:
			allOps = append(allOps, rec)
			if rec.CLR {
				get(rec.Txn).clrs++
			} else {
				get(rec.Txn).forward = append(get(rec.Txn).forward, rec)
			}
		case RecIdxCreate, RecIdxDrop:
			// Logical index DDL: no page effect to redo, but the record
			// participates in undo bookkeeping (its CLR is logical too) and
			// a follower's pending rebuild carries it to the apply hook.
			if rec.CLR {
				get(rec.Txn).clrs++
			} else {
				get(rec.Txn).forward = append(get(rec.Txn).forward, rec)
			}
		case RecAlloc:
			if !rec.CLR {
				allOps = append(allOps, rec)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Transaction ids restart above everything the log (and checkpoint
	// image) has seen; reusing a logged id would merge a new transaction's
	// records into an old one's on the next recovery. The commit-timestamp
	// clock likewise resumes past every stamp ever handed out; the commit
	// table itself stays empty — every surviving record is frozen, i.e.
	// visible to all, which is correct because no snapshot outlives a
	// crash.
	s.nextTxn.Store(maxTxn)
	s.commitTS.Store(maxTS)

	// A transaction's effects are durable only when it and every ancestor
	// committed — a committed subtransaction inside a crashed top-level
	// transaction is still a loser.
	var effCommitted func(id uint64) bool
	effCommitted = func(id uint64) bool {
		t := txns[id]
		if t == nil || !t.committed {
			return false
		}
		if t.parent == 0 {
			return true
		}
		return effCommitted(t.parent)
	}

	// Redo pass: repeat history, including compensations. A follower
	// replays only resolved transactions (committed-to-the-top or fully
	// aborted, the latter a net no-op) plus page allocations: unresolved
	// operations were never applied to its pages and must stay that way.
	redoSet := allOps
	if follower {
		redoSet = redoSet[:0]
		for _, rec := range allOps {
			if rec.Type == RecAlloc || effCommitted(rec.Txn) || txns[rec.Txn].aborted {
				redoSet = append(redoSet, rec)
			}
		}
	}
	workers, err := s.redoAll(redoSet)
	if err != nil {
		return err
	}

	stats := RecoveryStats{
		RedoStartLSN:   redoFrom,
		RecordsScanned: scanned,
		OpsRedone:      len(redoSet),
		Parallelism:    workers,
	}

	if follower {
		stats.Pending = s.rebuildPending(txns, effCommitted)
	} else {
		// Undo pass: across all losers, newest operation first, each undo
		// logging its own CLR.
		var losers []uint64
		var toUndo []*LogRecord
		// A committed subtransaction below an aborted ancestor is already
		// fully resolved: the ancestor's abort (runtime or a prior
		// recovery's) compensated the merged operations. Re-aborting it
		// here would ship an abort for a transaction no follower has any
		// trace of.
		ancestorAborted := func(id uint64) bool {
			for anc := txns[id].parent; anc != 0; {
				at := txns[anc]
				if at == nil {
					return false
				}
				if at.aborted {
					return true
				}
				if !at.committed {
					return false
				}
				anc = at.parent
			}
			return false
		}
		for id, t := range txns {
			if effCommitted(id) || t.aborted {
				continue
			}
			if t.committed && ancestorAborted(id) {
				continue
			}
			remaining := t.remaining()
			if len(remaining) > 0 || t.clrs > 0 {
				losers = append(losers, id)
			}
			toUndo = append(toUndo, remaining...)
		}
		sort.Slice(toUndo, func(i, j int) bool { return toUndo[i].LSN > toUndo[j].LSN })
		// Sabotage point for the torture harness's self-check: when armed,
		// recovery silently skips its undo pass, leaving loser effects on
		// the pages. The harness must detect this as an invariant violation
		// — if it doesn't, the harness is vacuous. Never armed outside that
		// test.
		if faults.Check(faults.RecoverSkipUndo) != nil {
			toUndo = nil
			losers = nil
		}
		for _, rec := range toUndo {
			if err := s.compensate(rec); err != nil {
				return fmt.Errorf("storage: recovery undo lsn %d: %w", rec.LSN, err)
			}
		}
		// Children before parents (subtransaction ids are always higher):
		// a committed-and-merged subtransaction in a loser tree has no
		// placeholder of its own on a follower, only a forwarding entry to
		// its parent — which must still exist when the sub's abort arrives.
		sort.Slice(losers, func(i, j int) bool { return losers[i] > losers[j] })
		for _, id := range losers {
			if _, err := s.wal.Append(&LogRecord{Type: RecAbort, Txn: id}); err != nil {
				return err
			}
		}
		stats.LosersUndone = len(losers)
		// Republish commit timestamps the crash swallowed: a committed
		// top-level transaction whose RecCommitTS record was still buffered
		// when the process died is frozen locally (visible to all — no
		// snapshot outlives a crash), but a live follower defers its
		// operations until a timestamp record arrives. Without a fresh one
		// the follower would hold that transaction pending forever.
		var republish []uint64
		for id, t := range txns {
			if t.parent == 0 && t.committed && !t.hasTS {
				republish = append(republish, id)
			}
		}
		if len(republish) > 0 {
			sort.Slice(republish, func(i, j int) bool { return republish[i] < republish[j] })
			ts := s.commitTS.Add(1)
			for _, id := range republish {
				if _, err := s.wal.Append(&LogRecord{Type: RecCommitTS, Txn: id, TS: ts}); err != nil {
					return err
				}
			}
		}
	}
	if err := s.wal.Flush(^uint64(0)); err != nil {
		return err
	}
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	stats.LogEndLSN = s.wal.End()
	stats.Elapsed = time.Since(start)
	s.recStats = stats
	return nil
}

// redoParallelMin is the operation count below which parallel redo isn't
// worth the fan-out.
const redoParallelMin = 256

// redoAll replays ops (already in LSN order), partitioned by page across
// workers so per-page order is preserved. Returns the worker count used.
func (s *Store) redoAll(ops []*LogRecord) (int, error) {
	workers := s.applyWorkers()
	if workers < 2 || len(ops) < redoParallelMin {
		for _, rec := range ops {
			if err := s.redoOp(rec); err != nil {
				return 1, fmt.Errorf("storage: recovery redo lsn %d: %w", rec.LSN, err)
			}
		}
		return 1, nil
	}
	// Allocation records extend the database file; do that serially and in
	// LSN order up front so concurrent workers only ever touch pages that
	// exist. The later per-worker redoOp repeat of EnsureAllocated is an
	// idempotent no-op.
	for _, rec := range ops {
		if rec.Type == RecAlloc {
			if err := s.disk.EnsureAllocated(rec.RID.Page); err != nil {
				return 1, fmt.Errorf("storage: recovery alloc page %d: %w", rec.RID.Page, err)
			}
		}
	}
	err := s.applyByPageShard(ops, workers, func(rec *LogRecord) error {
		if err := s.redoOp(rec); err != nil {
			return fmt.Errorf("storage: recovery redo lsn %d: %w", rec.LSN, err)
		}
		return nil
	})
	return workers, err
}

// applyWorkers returns the worker count the page-sharded apply pool uses:
// GOMAXPROCS capped at 8.
func (s *Store) applyWorkers() int {
	return min(8, runtime.GOMAXPROCS(0))
}

// applyByPageShard runs apply over ops (already in LSN order) partitioned
// by PageID across workers: records for one page land on one worker in
// order, so per-page LSN order is preserved while disjoint pages apply
// concurrently. The WAL is physiological — operations on different pages
// commute — which is what makes the partition sound. Shared by recovery
// redo (redoAll) and the follower's deferred-apply path (applyPendingOps),
// so a cold follower bootstrapping from a long shipped archive replays on
// the same pool recovery uses.
func (s *Store) applyByPageShard(ops []*LogRecord, workers int, apply func(*LogRecord) error) error {
	groups := make([][]*LogRecord, workers)
	for _, rec := range ops {
		g := int(uint64(rec.RID.Page) % uint64(workers))
		groups[g] = append(groups[g], rec)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, group := range groups {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, group []*LogRecord) {
			defer wg.Done()
			for _, rec := range group {
				if err := apply(rec); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, group)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rebuildPending reconstructs a follower's pending-transaction state after
// a restart: every unresolved transaction becomes a registered placeholder
// holding its not-yet-applied operations, exactly as live apply would have
// left it. Committed subtransactions under an unresolved ancestor merge
// into the nearest unresolved ancestor's placeholder (mirroring the live
// sub-commit merge); under an aborted ancestor their operations are dead.
// Returns the number of placeholders registered.
func (s *Store) rebuildPending(txns map[uint64]*txnInfo, effCommitted func(uint64) bool) int {
	placeholders := map[uint64]*txnState{}
	for id, t := range txns {
		if effCommitted(id) || t.aborted || t.committed {
			continue
		}
		placeholders[id] = &txnState{
			id:       id,
			parent:   t.parent,
			firstLSN: t.firstLSN,
			ops:      t.remaining(),
		}
	}
	for id, t := range txns {
		if !t.committed || effCommitted(id) {
			continue
		}
		// Committed, but some ancestor is not: ride to the nearest
		// unresolved ancestor, as the live merge did. Hitting an aborted
		// ancestor (or falling off the chain) means the merge was already
		// undone on the leader — the operations are dead.
		anc := t.parent
		for anc != 0 {
			if p, ok := placeholders[anc]; ok {
				p.ops = append(p.ops, t.remaining()...)
				p.merged = append(p.merged, id)
				s.tsMu.Lock()
				s.mergedInto[id] = t.parent
				s.tsMu.Unlock()
				break
			}
			at := txns[anc]
			if at == nil || at.aborted {
				break
			}
			anc = at.parent
		}
	}
	for _, p := range placeholders {
		sh := s.txShard(p.id)
		sh.mu.Lock()
		sh.m[p.id] = p
		sh.mu.Unlock()
	}
	return len(placeholders)
}
