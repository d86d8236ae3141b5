package storage

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/faults"
)

// Follower apply path. A replication follower advances only by ingesting
// the leader's log records, in LSN order, through ReplIngest, and it
// applies each one as the leader's restart redo would: it repeats history
// (ARIES). A forward operation reaches its page when it is ingested, at its
// RID, stamped with its own LSN, pushing the version-chain entry and
// setting the creator stamp the leader's write pushed and set; a
// compensation record reverses its operation with the leader's own undo.
// In-flight transactions are registered in the active table as on the
// leader, so snapshot readers treat their stamps as uncommitted until the
// commit record publishes them.
//
// The follower's pages therefore carry the leader's page LSNs: a follower
// restart is ordinary page-LSN-guarded redo (recover.go), and Promote is
// recovery's undo pass without the restart.

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
	recs, err := decodeFrames(s.ingestRecs[:0], base, data)
	defer func() {
		clear(recs)
		s.ingestRecs = recs[:0]
	}()
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
		defer sh.mu.Unlock()
		if sh.m[rec.Txn] != nil {
			return fmt.Errorf("%w: duplicate begin for txn %d", ErrReplicaDivergence, rec.Txn)
		}
		sh.m[rec.Txn] = &txnState{id: rec.Txn, parent: rec.Parent, firstLSN: rec.LSN}
		return nil

	case RecAlloc:
		if rec.CLR {
			return nil // allocation has no undo; its CLR is a no-op
		}
		return s.redoOp(rec)

	case RecInsert, RecDelete, RecUpdate, RecIdxCreate, RecIdxDrop:
		// A CLR for a committed-and-merged subtransaction's operation still
		// carries the subtransaction's id (the leader compensates the
		// original record); the operation lives in whatever ancestor the
		// merge forwarded it to.
		t := s.resolveOwner(rec.Txn)
		if t == nil {
			return fmt.Errorf("%w: operation for unknown txn %d", ErrReplicaDivergence, rec.Txn)
		}
		if rec.CLR {
			return s.applyCLR(t, rec)
		}
		return s.applyForward(t, rec)

	case RecCommit:
		t, err := s.getTxn(rec.Txn)
		if err != nil {
			return fmt.Errorf("%w: commit for unknown txn %d", ErrReplicaDivergence, rec.Txn)
		}
		if t.parent != 0 {
			// Subtransaction commit: merge the operations into the parent,
			// exactly as the leader merged.
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
		// Top-level commit, durable on the leader and carrying its commit
		// timestamp. Its operations are on the pages already, so it only
		// publishes: the apply hook sees them in LSN order, each carrying
		// the commit timestamp, then the stamps go in and the clock
		// advances, as on the leader.
		if hook := s.applyHookFn(); hook != nil {
			slices.SortFunc(t.ops, func(a, b *LogRecord) int { return cmp.Compare(a.LSN, b.LSN) })
			for _, op := range t.ops {
				op.TS = rec.TS
				hook(op)
			}
		}
		s.tsMu.Lock()
		s.stampLocked(t, rec.TS)
		if rec.TS > s.commitTS.Load() {
			s.commitTS.Store(rec.TS)
		}
		s.tsMu.Unlock()
		s.forget(t)
		return nil

	case RecAbort:
		t, err := s.getTxn(rec.Txn)
		if err != nil {
			return fmt.Errorf("%w: abort for unknown txn %d", ErrReplicaDivergence, rec.Txn)
		}
		// The CLRs before the abort record reversed every operation; the
		// forwarding entries of merged descendants go with it.
		s.dropMerged(t)
		s.forget(t)
		return nil

	case RecCheckpoint:
		return nil // the leader's checkpoint record carries no state for a follower

	default:
		return fmt.Errorf("%w: unknown record type %d", ErrReplicaDivergence, rec.Type)
	}
}

// resolveOwner returns the registered transaction currently holding txn
// id's operations: the transaction itself or, for a subtransaction that
// already merged, the nearest still-registered ancestor its operations
// were forwarded to. Returns nil when neither exists.
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

// applyForward applies one shipped forward operation at its RID, as the
// leader's write did. The follower's pages track the leader's exactly
// (same operations, same order), so a precondition mismatch — inserting
// onto a live slot, updating a dead one — is divergence, not something to
// paper over.
func (s *Store) applyForward(t *txnState, rec *LogRecord) error {
	if rec.Type.logical() {
		t.addOp(rec)
		return nil
	}
	page, err := s.pool.Fetch(rec.RID.Page)
	if err != nil {
		return err
	}
	defer s.pool.Unpin(rec.RID.Page, true)
	slot := rec.RID.Slot
	if page.Live(slot) == (rec.Type == RecInsert) {
		return fmt.Errorf("%w: %v at %v, live=%t", ErrReplicaDivergence, rec.Type, rec.RID, page.Live(slot))
	}
	var oldXmin uint64
	reused := slot < page.NumSlots()
	if reused {
		oldXmin = page.Xmin(slot)
	}
	switch rec.Type {
	case RecInsert:
		err = page.InsertAt(slot, rec.After)
	case RecUpdate:
		err = page.Update(slot, rec.After)
	default:
		err = page.Delete(slot)
	}
	if err != nil {
		return fmt.Errorf("%w: %v at %v: %v", ErrReplicaDivergence, rec.Type, rec.RID, err)
	}
	s.wrote(t, page, rec, oldXmin, reused)
	return nil
}

// applyCLR reverses the operation a shipped compensation record
// compensates, with the leader's own undo, stamped at the CLR's LSN. That
// operation is the owner's newest of the CLR's transaction on the CLR's RID
// (its newest index DDL, for a logical CLR): every rollback undoes one
// RID's operations newest first, and the locks that ordered them keep
// them in that order in the owner's list.
func (s *Store) applyCLR(t *txnState, clr *LogRecord) error {
	var op *LogRecord
	t.mu.Lock()
	for i := len(t.ops) - 1; i >= 0; i-- {
		if o := t.ops[i]; o.Txn == clr.Txn && o.RID == clr.RID && o.Type.logical() == clr.Type.logical() {
			op, t.ops = o, slices.Delete(t.ops, i, i+1)
			break
		}
	}
	t.mu.Unlock()
	if op == nil {
		return fmt.Errorf("%w: CLR at lsn %d compensates no operation of txn %d", ErrReplicaDivergence, clr.LSN, clr.Txn)
	}
	if op.Type.logical() {
		return nil
	}
	page, err := s.pool.Fetch(op.RID.Page)
	if err != nil {
		return err
	}
	defer s.pool.Unpin(op.RID.Page, true)
	return s.undoOpLatched(page, op, clr.LSN)
}

// PromoteStats reports what a promotion did.
type PromoteStats struct {
	Aborted int           // unresolved in-flight transactions rolled back
	Elapsed time.Duration // wall time for the promotion
}

// Promote turns the follower into a leader. The shipped log it holds is
// authoritative up to its local end; everything beyond died with the old
// leader. Every transaction whose commit record arrived is already
// published (the record carries its timestamp); what remains is resolved
// exactly as leader crash recovery would: every transaction still
// registered is rolled back, children first, through the leader's own
// rollback — compensation records applied under their pages' latches, then
// an abort record. The log is forced, the free-space map rebuilt, and the
// follower flag flips: every write entry point opens for business, its
// commit timestamps continuing the leader's.
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
	aborted, err := s.undoRegistered()
	if err == nil {
		err = s.wal.Flush(^uint64(0))
	}
	// Apply notes the free space of the pages it allocates and touches;
	// the rebuild formats and logs any orphan page before taking writes.
	if err == nil {
		err = s.rebuildFSM(true)
	}
	if err != nil {
		return PromoteStats{}, err
	}
	s.commitMu.Lock()
	s.lastTS = s.commitTS.Load()
	s.commitMu.Unlock()
	s.follower.Store(false)
	return PromoteStats{Aborted: aborted, Elapsed: time.Since(start)}, nil
}
