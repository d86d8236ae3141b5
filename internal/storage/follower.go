package storage

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/faults"
)

// Follower apply path. A replication follower advances exclusively by
// ingesting the leader's log records, in LSN order, through ReplIngest.
// The scheme is deferred apply: a shipped forward operation is buffered in
// a placeholder transaction (registered in the active table, so snapshot
// readers treat its stamps as in-flight and invisible) and touches no page
// until the transaction's commit record arrives. Pages therefore only ever
// contain resolved effects — the invariant follower recovery (recover.go)
// and Promote both lean on: there is never anything to physically undo.
//
// Two consequences of deferring:
//
//   - Pages are stamped with the LSN of the commit record that published
//     them, not each operation's own LSN. Apply order is commit order, so
//     the stamp stays monotone per page, and — because the buffer pool
//     forces the log up to a page's LSN before writing it back — a page on
//     disk implies its publishing commit record is durable. That is what
//     makes restart recovery (which replays resolved transactions only)
//     converge without ever seeing an effect it cannot account for. Such
//     stamps do not follow operation order, so the directory carries a
//     follower mark (format.go) that keeps redo from trusting them.
//   - Strict two-phase locking above the leader's store orders conflicting
//     operations across transactions consistently with commit order, so
//     replaying whole transactions at commit, sorted by operation LSN
//     within each, reproduces the leader's page state exactly.

// ReplIngest appends a batch of shipped leader log records (raw wire
// bytes, starting exactly at this store's log end) and applies them.
// Records are validated and made part of the local log before any of
// their effects reach the version/page state, preserving the WAL rule.
// Returns the number of records applied.
func (s *Store) ReplIngest(base uint64, data []byte) (int, error) {
	if !s.follower.Load() {
		return 0, ErrNotFollower
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.closed.Load() {
		return 0, ErrStoreClosed
	}
	recs, err := DecodeFrames(base, data)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrReplicaDivergence, err)
	}
	if err := s.wal.IngestRaw(base, data, len(recs)); err != nil {
		return 0, err
	}
	for i, rec := range recs {
		// Kill point for replication torture: the follower dies between
		// ingesting a batch into its log and finishing its application.
		if err := faults.Check(faults.ReplApply); err != nil {
			return i, err
		}
		if err := s.applyShipped(rec); err != nil {
			return i, err
		}
	}
	s.replApplied.Store(s.wal.End())
	return len(recs), nil
}

// applyShipped applies one shipped log record to the follower's state.
func (s *Store) applyShipped(rec *LogRecord) error {
	switch rec.Type {
	case RecBegin:
		if rec.Txn > s.nextTxn.Load() {
			s.nextTxn.Store(rec.Txn)
		}
		sh := s.txShard(rec.Txn)
		sh.mu.Lock()
		dup := sh.m[rec.Txn] != nil
		if !dup {
			sh.m[rec.Txn] = &txnState{id: rec.Txn, parent: rec.Parent, firstLSN: rec.LSN}
		}
		sh.mu.Unlock()
		if dup {
			return fmt.Errorf("%w: duplicate begin for txn %d", ErrReplicaDivergence, rec.Txn)
		}
		return nil

	case RecAlloc:
		if rec.CLR {
			return nil // allocation has no undo; its CLR is a no-op
		}
		// Page allocations apply immediately: they carry no transactional
		// effect to defer, and deferred inserts need the page to exist.
		return s.redoOp(rec)

	case RecInsert, RecDelete, RecUpdate, RecIdxCreate, RecIdxDrop:
		// Logical index-DDL records defer with the transaction like page
		// operations: they reach the apply hook at commit, and their CLRs
		// cancel them below exactly like any other op.
		// CLRs for a committed-and-merged subtransaction's operations still
		// carry the subtransaction's id (the leader compensates the original
		// record); the pending operation they cancel lives in whatever
		// ancestor placeholder the merge forwarded it to.
		t := s.resolveOwner(rec.Txn)
		if t == nil {
			return fmt.Errorf("%w: operation for unknown txn %d", ErrReplicaDivergence, rec.Txn)
		}
		t.mu.Lock()
		if rec.CLR {
			// The leader is rolling back: each CLR cancels the newest still-
			// pending operation (the leader undoes in strict reverse order).
			// Nothing was applied here, so cancelling is pure bookkeeping.
			if n := len(t.ops); n > 0 {
				t.ops = t.ops[:n-1]
			}
		} else {
			t.ops = append(t.ops, rec)
		}
		t.mu.Unlock()
		return nil

	case RecCommit:
		t, err := s.getTxn(rec.Txn)
		if err != nil {
			return fmt.Errorf("%w: commit for unknown txn %d", ErrReplicaDivergence, rec.Txn)
		}
		if t.parent != 0 {
			// Subtransaction commit: merge pending operations into the
			// parent placeholder, exactly as the leader merged.
			p, perr := s.getTxn(t.parent)
			if perr != nil {
				return fmt.Errorf("%w: txn %d commits into unknown parent %d", ErrReplicaDivergence, rec.Txn, t.parent)
			}
			p.mu.Lock()
			p.ops = append(p.ops, t.ops...)
			p.merged = append(append(p.merged, t.id), t.merged...)
			p.mu.Unlock()
			s.tsMu.Lock()
			s.mergedInto[t.id] = t.parent
			s.tsMu.Unlock()
			s.forget(t)
			return nil
		}
		// Top-level commit: the transaction is durable on the leader —
		// apply its buffered operations to the pages and version chains.
		// The placeholder stays registered (stamps remain "in flight" to
		// snapshots) until the commit-timestamp record publishes it.
		if err := s.applyPendingOps(t, rec.LSN); err != nil {
			return err
		}
		t.mu.Lock()
		t.applied = true
		t.mu.Unlock()
		return nil

	case RecAbort:
		t, err := s.getTxn(rec.Txn)
		if err != nil {
			// Leader crash recovery aborts every member of a loser tree
			// individually — including subtransactions that had committed
			// and merged into an uncommitted ancestor. Such a sub has no
			// placeholder here, only a forwarding entry; its buffered
			// operations were already cancelled by the CLRs that precede
			// the abort, so dropping the entry is all that is left. The
			// ancestor's own abort follows (recovery orders children
			// first).
			s.tsMu.Lock()
			_, merged := s.mergedInto[rec.Txn]
			delete(s.mergedInto, rec.Txn)
			s.tsMu.Unlock()
			if !merged {
				return fmt.Errorf("%w: abort for unknown txn %d", ErrReplicaDivergence, rec.Txn)
			}
			return nil
		}
		// Nothing was applied, so there is nothing to undo: drop the
		// placeholder and the forwarding entries of descendants that died
		// with it.
		if len(t.merged) > 0 {
			s.tsMu.Lock()
			for _, m := range t.merged {
				delete(s.mergedInto, m)
			}
			s.tsMu.Unlock()
		}
		s.forget(t)
		return nil

	case RecCommitTS:
		// Publish: install the leader-assigned commit timestamp for the
		// transaction and everything that merged into it, then advance the
		// clock — install-before-advance, as on the leader. If the
		// placeholder is gone (the follower restarted between the commit
		// record and this one, so recovery already replayed the transaction
		// as resolved-and-frozen), only the clock advances: re-stamping
		// records a snapshot may already have seen as frozen would yank
		// them out from under it.
		sh := s.txShard(rec.Txn)
		sh.mu.Lock()
		t := sh.m[rec.Txn]
		sh.mu.Unlock()
		if t != nil {
			t.mu.Lock()
			applied := t.applied
			t.mu.Unlock()
			if !applied {
				return fmt.Errorf("%w: commit-ts for unapplied txn %d", ErrReplicaDivergence, rec.Txn)
			}
		}
		s.tsMu.Lock()
		if t != nil {
			s.cts[t.id] = rec.TS
			for _, m := range t.merged {
				s.cts[m] = rec.TS
				delete(s.mergedInto, m)
			}
		}
		if rec.TS > s.commitTS.Load() {
			s.commitTS.Store(rec.TS)
		}
		s.tsMu.Unlock()
		if t != nil {
			s.forget(t)
		}
		return nil

	case RecCheckpoint:
		return nil // the leader's checkpoint record carries no state for a follower

	default:
		return fmt.Errorf("%w: unknown record type %d", ErrReplicaDivergence, rec.Type)
	}
}

// resolveOwner returns the placeholder currently holding txn id's pending
// operations: the placeholder itself or, for a subtransaction that already
// merged, the nearest still-registered ancestor its operations were
// forwarded to. Returns nil when neither exists.
func (s *Store) resolveOwner(id uint64) *txnState {
	for {
		sh := s.txShard(id)
		sh.mu.Lock()
		t := sh.m[id]
		sh.mu.Unlock()
		if t != nil {
			return t
		}
		s.tsMu.Lock()
		next, ok := s.mergedInto[id]
		s.tsMu.Unlock()
		if !ok {
			return nil
		}
		id = next
	}
}

// applyPendingOps replays a committed transaction's buffered operations
// onto the pages and version chains, mirroring the leader's forward write
// paths (chain pushes and xmin stamps included, so snapshot reads resolve
// identically). Operations are applied in LSN order — merged
// subtransaction operations interleave correctly — and every touched page
// is stamped with the commit record's LSN.
// Large transactions — a cold follower draining a long shipped archive
// arrives here with the whole history buffered in placeholders — replay on
// the same page-sharded worker pool recovery redo uses; small ones apply
// serially. Logical index-DDL records have no page effect and are skipped
// here. After every page effect is in place the apply hook (if any)
// observes each operation in LSN order, so upper-layer directories update
// deterministically even when the page apply itself ran sharded.
func (s *Store) applyPendingOps(t *txnState, commitLSN uint64) error {
	t.mu.Lock()
	ops := t.ops
	t.mu.Unlock()
	sort.Slice(ops, func(i, j int) bool { return ops[i].LSN < ops[j].LSN })
	pageOps := ops
	hasLogical := false
	for _, rec := range ops {
		if rec.Type == RecIdxCreate || rec.Type == RecIdxDrop {
			hasLogical = true
			break
		}
	}
	if hasLogical {
		pageOps = make([]*LogRecord, 0, len(ops))
		for _, rec := range ops {
			if rec.Type != RecIdxCreate && rec.Type != RecIdxDrop {
				pageOps = append(pageOps, rec)
			}
		}
	}
	workers := s.applyWorkers()
	if workers >= 2 && len(pageOps) >= redoParallelMin {
		err := s.applyByPageShard(pageOps, workers, func(rec *LogRecord) error {
			if err := s.applyResolved(rec, commitLSN); err != nil {
				return fmt.Errorf("apply txn %d lsn %d: %w", t.id, rec.LSN, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		for _, rec := range pageOps {
			if err := s.applyResolved(rec, commitLSN); err != nil {
				return fmt.Errorf("apply txn %d lsn %d: %w", t.id, rec.LSN, err)
			}
		}
	}
	if hook := s.applyHookFn(); hook != nil {
		for _, rec := range ops {
			hook(rec)
		}
	}
	return nil
}

// applyResolved applies one committed forward operation. The follower's
// page state tracks the leader's exactly (same operations, same order), so
// a precondition mismatch — inserting onto a live slot, updating a dead
// one — is divergence, not something to paper over.
func (s *Store) applyResolved(rec *LogRecord, commitLSN uint64) error {
	page, err := s.pool.Fetch(rec.RID.Page)
	if err != nil {
		return err
	}
	defer s.pool.Unpin(rec.RID.Page, true)
	slot := rec.RID.Slot
	switch rec.Type {
	case RecInsert:
		if page.Live(slot) {
			return fmt.Errorf("%w: insert at live slot %v", ErrReplicaDivergence, rec.RID)
		}
		reused := slot < page.NumSlots()
		if err := page.InsertAt(slot, rec.After); err != nil {
			return fmt.Errorf("%w: %v", ErrReplicaDivergence, err)
		}
		if reused {
			s.pushChain(rec.RID, chainEntry{writer: rec.Txn, xmin: s.priorDeleter(rec.RID)})
		}
		page.SetXmin(slot, rec.Txn)
	case RecUpdate:
		if !page.Live(slot) {
			return fmt.Errorf("%w: update of dead slot %v", ErrReplicaDivergence, rec.RID)
		}
		oldXmin := page.Xmin(slot)
		if err := page.Update(slot, rec.After); err != nil {
			return fmt.Errorf("%w: %v", ErrReplicaDivergence, err)
		}
		s.pushChain(rec.RID, chainEntry{writer: rec.Txn, xmin: oldXmin, data: cloneBytes(rec.Before), exists: true})
		page.SetXmin(slot, rec.Txn)
	case RecDelete:
		if !page.Live(slot) {
			return fmt.Errorf("%w: delete of dead slot %v", ErrReplicaDivergence, rec.RID)
		}
		oldXmin := page.Xmin(slot)
		if err := page.Delete(slot); err != nil {
			return err
		}
		s.pushChain(rec.RID, chainEntry{writer: rec.Txn, xmin: oldXmin, data: cloneBytes(rec.Before), exists: true})
	default:
		return fmt.Errorf("%w: unexpected pending record type %d", ErrReplicaDivergence, rec.Type)
	}
	if commitLSN > page.LSN() {
		page.SetLSN(commitLSN)
	}
	s.noteFree(page)
	return nil
}

// PromoteStats reports what a promotion did.
type PromoteStats struct {
	Published int           // committed transactions awaiting their timestamp, published
	Aborted   int           // unresolved in-flight transactions rolled back
	Elapsed   time.Duration // wall time for the promotion
}

// Promote turns the follower into a leader. The shipped log it holds is
// authoritative up to its local end; everything beyond died with the old
// leader. Promotion resolves the residue exactly as leader crash recovery
// would have:
//
//   - transactions whose commit record arrived but whose commit-timestamp
//     record did not are published with a locally assigned timestamp (one
//     shared stamp, installed atomically, so no snapshot ever observes a
//     half-published group);
//   - unresolved transactions are rolled back on the log — compensation
//     records plus an abort record — with no physical application at all,
//     since deferred apply means none of their effects ever reached a page.
//     A later recovery replays forward op and CLR as a net no-op.
//
// It then forces the log, flushes all pages, and persists a checkpoint
// whose redo point is the log end (endFollowerStamps), so a store that
// crashes right after promotion recovers from (near) nothing — in
// particular it never replays the shipped history with leader semantics,
// and a crash before that checkpoint leaves the follower mark standing.
// Finally the follower flag flips and every write entry point opens for
// business.
func (s *Store) Promote() (PromoteStats, error) {
	if s.closed.Load() {
		return PromoteStats{}, ErrStoreClosed
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if !s.follower.Load() {
		return PromoteStats{}, ErrNotFollower
	}
	start := time.Now()
	var committed, pending []*txnState
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, t := range sh.m {
			if t.applied {
				committed = append(committed, t)
			} else {
				pending = append(pending, t)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(committed, func(i, j int) bool { return committed[i].id < committed[j].id })
	// Children before parents: subtransaction ids are always higher.
	sort.Slice(pending, func(i, j int) bool { return pending[i].id > pending[j].id })

	if len(committed) > 0 {
		s.tsMu.Lock()
		ts := s.commitTS.Load() + 1
		for _, t := range committed {
			s.cts[t.id] = ts
			for _, m := range t.merged {
				s.cts[m] = ts
				delete(s.mergedInto, m)
			}
		}
		s.commitTS.Store(ts)
		s.tsMu.Unlock()
		for _, t := range committed {
			if _, err := s.wal.Append(&LogRecord{Type: RecCommitTS, Txn: t.id, TS: ts}); err != nil {
				return PromoteStats{}, err
			}
			s.forget(t)
		}
	}
	for _, t := range pending {
		for i := len(t.ops) - 1; i >= 0; i-- {
			if _, err := s.wal.Append(compensationFor(t.ops[i])); err != nil {
				return PromoteStats{}, err
			}
		}
		// Even a transaction that logged nothing but its begin: a follower
		// of this store holds a placeholder for it until an abort arrives.
		if _, err := s.wal.Append(&LogRecord{Type: RecAbort, Txn: t.id}); err != nil {
			return PromoteStats{}, err
		}
		if len(t.merged) > 0 {
			s.tsMu.Lock()
			for _, m := range t.merged {
				delete(s.mergedInto, m)
			}
			s.tsMu.Unlock()
		}
		s.forget(t)
	}
	if err := s.endFollowerStamps(); err != nil {
		return PromoteStats{}, err
	}
	// The free-space map was never maintained during apply (no local
	// inserts consulted it); rebuild before taking writes.
	if err := s.rebuildFSM(true); err != nil {
		return PromoteStats{}, err
	}
	s.follower.Store(false)
	return PromoteStats{
		Published: len(committed),
		Aborted:   len(pending),
		Elapsed:   time.Since(start),
	}, nil
}

// endFollowerStamps ends the directory's follower era: with the log forced
// and every page flushed, it persists a checkpoint whose redo point is the
// log end, so no record below a follower stamp is ever replayed again, and
// only then drops the follower mark — from here on every page LSN at or
// above the redo point is an operation's own. Nothing else may be writing.
func (s *Store) endFollowerStamps() error {
	if err := s.wal.Flush(^uint64(0)); err != nil {
		return err
	}
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	img := &ckptImage{
		RedoLSN:  s.wal.End(),
		NextTxn:  s.nextTxn.Load(),
		CommitTS: s.commitTS.Load(),
	}
	if err := s.wal.SetCheckpoint(img.RedoLSN, encodeCkptImage(img)); err != nil {
		return err
	}
	if err := os.Remove(s.followerMark); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: remove follower mark: %w", err)
	}
	s.followerMark = ""
	return nil
}
