package storage

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
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
	Pending        int           // unresolved transactions registered after redo (a follower keeps them in flight)
	Parallelism    int           // redo workers used
	Elapsed        time.Duration // wall time for the whole pass
}

// txnInfo accumulates one transaction's fate during the log scan.
type txnInfo struct {
	committed bool
	aborted   bool   // rollback completed (abort record present)
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
// an abort record, so recovery itself is crash-safe and idempotent. The
// undo pass is Promote's too (undoRegistered).
//
// With a fuzzy checkpoint in the manifest the scan starts at the
// checkpoint's redo point instead of zero: the dirty-page-table bound
// guarantees every unpersisted page change is at or above it, and the
// active-transaction-table bound guarantees every unresolved transaction's
// complete history is too (see checkpoint.go). Redo is parallelized by
// page: operations are partitioned by PageID so per-page LSN order is
// preserved while disjoint pages replay concurrently.
//
// A follower runs the same redo and stops short of undo: its unresolved
// transactions stay registered, in flight as they are on the leader.
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
			if rec.TS > maxTS {
				maxTS = rec.TS
			}
		case RecAbort:
			get(rec.Txn).aborted = true
		case RecInsert, RecDelete, RecUpdate, RecIdxCreate, RecIdxDrop:
			// Logical index DDL has no page effect to redo, but it joins the
			// undo bookkeeping (its CLR is logical too) and a follower's
			// registered transaction carries it to the apply hook.
			if !rec.Type.logical() {
				allOps = append(allOps, rec)
			}
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
	// clock likewise resumes at the newest stamp a surviving commit record
	// carries, so timestamps never repeat across restarts; the commit
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

	// Redo pass: repeat history, including compensations.
	workers, err := s.redoAll(allOps)
	if err != nil {
		return err
	}

	stats := RecoveryStats{
		RedoStartLSN:   redoFrom,
		RecordsScanned: scanned,
		OpsRedone:      len(allOps),
		Parallelism:    workers,
	}

	// Undo pass. Every unresolved transaction is registered again, its
	// effects on the pages; a leader then rolls them all back. A follower
	// must not append to its log, and its unresolved transactions are
	// still in flight on the leader: they stay registered for shipped
	// commit, CLR and abort records to resolve. Sabotage point for the
	// torture harness's self-check: when armed, a leader's recovery
	// silently skips its undo pass, leaving loser effects on the pages as
	// if committed. The harness must detect this as an invariant violation
	// — if it doesn't, the harness is vacuous. Never armed outside that
	// test.
	if follower || faults.Check(faults.RecoverSkipUndo) == nil {
		if stats.Pending, err = s.registerUnresolved(txns, effCommitted); err == nil && !follower {
			stats.LosersUndone, err = s.undoRegistered()
		}
		if err != nil {
			return err
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
// commute — which is what makes the partition sound. Restart redo
// (redoAll) uses it, a follower's included; live follower apply is serial,
// record by record as it is ingested.
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

// registerUnresolved rebuilds in memory the unresolved transactions whose
// effects redo left on the pages. Each is registered again with its
// remaining operations — a committed subtransaction's ride to its nearest
// unresolved ancestor, as the live merge forwarded them; under an aborted
// ancestor they are dead — and their version-chain entries are pushed
// again, in LSN order, each with its before-image. The state an entry
// displaced was committed before the restart, hence frozen (creator 0),
// unless an earlier registered operation wrote it: then its creator is
// that operation's transaction, the writer of the entry below. Recovery
// runs alone, so no lock is taken. Returns the number registered.
func (s *Store) registerUnresolved(txns map[uint64]*txnInfo, effCommitted func(uint64) bool) (int, error) {
	reg := map[uint64]*txnState{}
	for id, t := range txns {
		if effCommitted(id) || t.aborted || t.committed {
			continue
		}
		reg[id] = &txnState{id: id, parent: t.parent, firstLSN: t.firstLSN, ops: t.remaining()}
	}
	for id, t := range txns {
		if !t.committed || effCommitted(id) {
			continue
		}
		// Committed, but some ancestor is not: ride to the nearest
		// unresolved ancestor, as the live merge did. Hitting an aborted
		// ancestor (or falling off the chain) means the merge was already
		// undone on the leader — the operations are dead.
		for anc := t.parent; anc != 0; {
			if p, ok := reg[anc]; ok {
				p.ops = append(p.ops, t.remaining()...)
				p.merged = append(p.merged, id)
				s.mergedInto[id] = t.parent
				break
			}
			at := txns[anc]
			if at == nil || at.aborted {
				break
			}
			anc = at.parent
		}
	}
	// Registered before any chain push, so no push prunes their entries.
	// The pushes run over all of them in one LSN order: a parent and its
	// open child may both have written one record.
	byLSN := func(a, b *LogRecord) int { return cmp.Compare(a.LSN, b.LSN) }
	var ops []*LogRecord
	for _, t := range reg {
		s.txShard(t.id).m[t.id] = t
		slices.SortFunc(t.ops, byLSN)
		for _, op := range t.ops {
			if !op.Type.logical() {
				ops = append(ops, op)
			}
		}
	}
	slices.SortFunc(ops, byLSN)
	for _, op := range ops {
		page, err := s.pool.Fetch(op.RID.Page)
		if err != nil {
			return 0, err
		}
		s.pushChain(op.RID, chainEntry{writer: op.Txn, xmin: s.priorDeleter(op.RID), data: op.Before, exists: op.Type != RecInsert})
		if op.Type != RecDelete && page.Live(op.RID.Slot) {
			page.SetXmin(op.RID.Slot, op.Txn)
		}
		s.pool.Unpin(op.RID.Page, true)
	}
	return len(reg), nil
}

// undoRegistered is recovery's undo pass, and Promote's: it rolls back
// every registered transaction, children first (subtransaction ids are
// always higher), each through the leader's own rollback — a CLR per
// remaining operation, then an abort record. Even a transaction that
// logged nothing but its begin gets one: a follower of this store holds it
// registered until an abort arrives. Returns the number rolled back.
func (s *Store) undoRegistered() (int, error) {
	ids := s.ActiveTxns()
	slices.SortFunc(ids, func(a, b uint64) int { return cmp.Compare(b, a) })
	for _, id := range ids {
		t, err := s.getTxn(id)
		if err == nil {
			_, err = s.rollback(t)
		}
		if err != nil {
			return 0, err
		}
		s.dropMerged(t)
		s.forget(t)
	}
	return len(ids), nil
}
