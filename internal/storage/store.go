package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// Options configures a Store.
type Options struct {
	// Dir is the directory holding the database file and log.
	Dir string
	// PoolSize is the buffer pool capacity in pages (default 64).
	PoolSize int
	// SyncWAL makes every log flush fsync. Durable but slow; benchmarks
	// and tests leave it off.
	SyncWAL bool
	// VersionGCInterval is the cadence of the background version garbage
	// collector that truncates MVCC chains to what the oldest live
	// snapshot still needs. Zero means the default (one second); a
	// negative value disables the background pass (Checkpoint and
	// opportunistic pruning still collect).
	VersionGCInterval time.Duration
	// Follower opens the store as a replication follower: every write
	// entry point returns ErrFollowerReadOnly and state advances only
	// through ReplIngest applying shipped leader log records. Snapshot
	// reads work normally. Promote flips the store to a leader.
	Follower bool
	// WALSegBytes is the log's segment-roll threshold (default 4 MiB).
	// Tests use small values to exercise rolling and archival.
	WALSegBytes int64
}

// Errors reported by the store.
var (
	ErrNoSuchTxn         = errors.New("storage: no such active transaction")
	ErrTxnDone           = errors.New("storage: transaction already finished")
	ErrStoreClosed       = errors.New("storage: store is closed")
	ErrFollowerReadOnly  = errors.New("storage: store is a replication follower (read-only)")
	ErrNotFollower       = errors.New("storage: store is not a replication follower")
	ErrReplicaDivergence = errors.New("storage: follower diverged from shipped log")
)

// txnState tracks one active transaction — top-level or nested. Nested
// transactions (subtransactions) are the paper's future-work extension we
// implement: a subtransaction's operations merge into its parent on commit
// and are undone (with CLRs) on abort.
//
// The per-txn mutex covers the mutable fields (ops, children, finishing).
// Operations on one transaction are expected to come from its owning
// goroutine — the store does not serialize racing writers within a txn,
// exactly as the upper transaction manager uses it — but the state is
// still internally consistent under concurrent sibling commits merging
// into a shared parent.
type txnState struct {
	id       uint64
	parent   uint64 // zero for top-level transactions
	firstLSN uint64 // LSN of the begin record (fuzzy-checkpoint redo bound)

	mu        sync.Mutex
	children  int
	ops       []*LogRecord // forward operations, for runtime undo on abort
	res       []resEntry   // undo reservations, dropped when the txn resolves
	merged    []uint64     // committed descendants riding to the top-level outcome
	finishing bool         // a Commit/Abort owns the txn right now
}

func (t *txnState) addOp(rec *LogRecord) {
	t.mu.Lock()
	t.ops = append(t.ops, rec)
	t.mu.Unlock()
}

// resEntry is one undo reservation a transaction holds: free bytes (and,
// for deletes, the tombstoned slot) on a page that rollback may need to
// restore a before-image in place.
type resEntry struct {
	page    PageID
	bytes   int
	slot    uint16
	hasSlot bool
}

// pageReserve aggregates the undo reservations on one page: bytes no
// insert may consume and tombstoned slots no insert may reuse.
type pageReserve struct {
	bytes int
	slots map[uint16]int
}

// unfinish releases finisher ownership after a failed Commit/Abort so the
// transaction stays active and retryable (the upper layer resets its own
// status the same way).
func (t *txnState) unfinish() {
	t.mu.Lock()
	t.finishing = false
	t.mu.Unlock()
}

// txnShardCount stripes the active-transaction table. Power of two so the
// modulo compiles to a mask.
const txnShardCount = 16

// txnShard is one stripe of the active-transaction table.
type txnShard struct {
	mu sync.Mutex
	m  map[uint64]*txnState
}

// Free-space map classes: pages are bucketed by free bytes / 256 so an
// insert probes one bucket (plus larger ones) instead of scanning every
// page. The exact free count still lives in fsm; buckets only narrow the
// candidate set. spaceProbes bounds the candidates one insert tries.
const (
	fsShift     = 8
	fsClasses   = PageSize >> fsShift
	spaceProbes = 4
)

// fileSpace is one file's part of the free-space map: its pages bucketed
// by free-space class, and all its pages in ascending order — the order a
// file scan reads them in.
type fileSpace struct {
	free  [fsClasses]map[PageID]struct{}
	pages []PageID
}

func fsClass(free int) int {
	c := free >> fsShift
	if c >= fsClasses {
		c = fsClasses - 1
	}
	return c
}

// Store is the storage manager: heap records addressed by RID, buffered
// pages, a write-ahead log, and atomic, durable top-level transactions.
// This is the layer the paper obtains from Exodus; everything above
// (locking for isolation, nested subtransactions, objects) is built on it.
//
// The store itself does not enforce isolation: the caller (the lock
// manager / transaction manager) must ensure conflicting record accesses
// are serialized, as Sentinel's nested transaction manager does with its
// own lock table on top of Exodus.
//
// Concurrency (see DESIGN.md §10): there is no store-wide mutex. The
// active-transaction table is lock-striped, page contents are guarded by
// per-frame latches in the lock-striped buffer pool, the free-space map
// has its own leaf mutex, and top-level commit durability goes through the
// log's group commit (seglog.WaitDurable) so no lock is ever held across
// an fsync.
type Store struct {
	disk *DiskManager
	pool *BufferPool
	wal  *WAL

	// Group-commit accounting (waitDurable): forces that covered at least
	// one waiter, the waiters they covered, and the batch-size and wait
	// histograms RegisterMetrics attaches.
	groupForces  atomic.Uint64
	groupWaiters atomic.Uint64
	groupBatch   atomic.Pointer[obs.Histogram]
	groupWait    atomic.Pointer[obs.Histogram]

	nextTxn atomic.Uint64
	shards  [txnShardCount]txnShard

	fsmMu sync.Mutex
	fsm   map[PageID]int // exact free bytes per page
	files map[FileID]*fileSpace

	// Undo reservations: space freed by an uncommitted shrink or delete
	// stays off-limits to other inserters until the freeing transaction
	// resolves, so rollback can always restore the before-image at its
	// original RID. Lock order: fsmMu may be held when taking resMu;
	// resMu is otherwise a leaf.
	resMu    sync.Mutex
	reserves map[PageID]*pageReserve

	// MVCC state (mvcc.go): the commit-timestamp clock, the table
	// resolving raw txn stamps to commit timestamps, forwarding for
	// committed subtransactions awaiting their root's outcome, the
	// per-RID version chains, and the snapshot registry. tsMu is a leaf
	// lock; it is taken under page latches and chain shard mutexes.
	commitTS   atomic.Uint64
	tsMu       sync.Mutex
	cts        map[uint64]uint64 // txn id -> commit timestamp
	mergedInto map[uint64]uint64 // committed sub -> parent it merged into

	// Commit order (appendCommit): lastTS is the newest commit timestamp
	// handed out; unpublished (under tsMu) the commits not yet published.
	commitMu    sync.Mutex
	lastTS      uint64
	unpublished []pubEntry

	chains       [chainShardCount]chainShard
	chainPages   [chainPageBuckets]atomic.Int32 // RIDs with a chain, per page bucket
	snaps        [snapShardCount]snapShard
	snapSeq      atomic.Uint64
	gcHorizon    atomic.Uint64 // last horizon computed by VersionGC
	settledBelow atomic.Uint64 // settled-stamp mark: every id below is frozen

	readSnapshotN atomic.Uint64
	readLockedN   atomic.Uint64
	gcReclaimed   atomic.Uint64
	chainLenHist  atomic.Pointer[obs.Histogram]
	readLockProbe atomic.Pointer[func()] // tests: called per read-path mutex acquisition

	vgcTick *time.Ticker
	vgcQuit chan struct{}
	vgcDone chan struct{}

	// Replication state. follower gates every write entry point; applyMu
	// serializes the single apply/promote path on a follower. retainFn
	// (settable by a shipping server) lowers the archive-prune floor to
	// what the slowest connected follower still needs.
	follower    atomic.Bool
	applyMu     sync.Mutex
	retainMu    sync.Mutex
	retainFn    func() (uint64, bool)
	recStats    RecoveryStats
	replApplied atomic.Uint64 // log position fully applied by ReplIngest
	ingestRecs  []*LogRecord  // ReplIngest's decode buffer, reused under applyMu
	applyHook   atomic.Pointer[func(*LogRecord)]

	closed atomic.Bool
}

// Open opens (creating or recovering as needed) the store in opts.Dir.
func Open(opts Options) (*Store, error) {
	if opts.PoolSize == 0 {
		opts.PoolSize = 64
	}
	if err := checkFormat(opts.Dir); err != nil {
		return nil, err
	}
	disk, err := OpenDisk(filepath.Join(opts.Dir, "sentinel.db"))
	if err != nil {
		return nil, err
	}
	wal, err := OpenWAL(filepath.Join(opts.Dir, "wal"), opts.SyncWAL, opts.WALSegBytes)
	if err != nil {
		disk.Close()
		return nil, err
	}
	s := &Store{
		disk:       disk,
		wal:        wal,
		fsm:        make(map[PageID]int),
		files:      make(map[FileID]*fileSpace),
		reserves:   make(map[PageID]*pageReserve),
		cts:        make(map[uint64]uint64),
		mergedInto: make(map[uint64]uint64),
	}
	s.follower.Store(opts.Follower)
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]*txnState)
	}
	for i := range s.chains {
		s.chains[i].m = make(map[RID]versionChain)
	}
	for i := range s.snaps {
		s.snaps[i].m = make(map[uint64]int)
	}
	s.pool = NewBufferPool(disk, opts.PoolSize, wal.Flush)
	s.pool.SetLSNSource(wal.End)
	if err := s.recover(); err != nil {
		wal.Close()
		disk.Close()
		return nil, err
	}
	s.replApplied.Store(wal.End())
	s.lastTS = s.commitTS.Load()
	if err := s.rebuildFSM(!opts.Follower); err != nil {
		wal.Close()
		disk.Close()
		return nil, err
	}
	if opts.VersionGCInterval == 0 {
		opts.VersionGCInterval = time.Second
	}
	if opts.VersionGCInterval > 0 {
		s.vgcTick = time.NewTicker(opts.VersionGCInterval)
		s.vgcQuit = make(chan struct{})
		s.vgcDone = make(chan struct{})
		go s.versionGCLoop()
	}
	return s, nil
}

// Close checkpoints and closes the store.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return ErrStoreClosed
	}
	if s.vgcTick != nil {
		s.vgcTick.Stop()
		close(s.vgcQuit)
		<-s.vgcDone
	}
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	if err := s.wal.Close(); err != nil {
		return err
	}
	return s.disk.Close()
}

func (s *Store) txShard(id uint64) *txnShard {
	return &s.shards[id%txnShardCount]
}

// getTxn looks up a registered transaction, finished-or-not.
func (s *Store) getTxn(id uint64) (*txnState, error) {
	sh := s.txShard(id)
	sh.mu.Lock()
	t := sh.m[id]
	sh.mu.Unlock()
	if t == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchTxn, id)
	}
	return t, nil
}

// lookupActive returns the transaction if it is still accepting work.
func (s *Store) lookupActive(id uint64) (*txnState, error) {
	t, err := s.getTxn(id)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	fin := t.finishing
	t.mu.Unlock()
	if fin {
		return nil, fmt.Errorf("%w: %d", ErrTxnDone, id)
	}
	return t, nil
}

// takeFinisher claims exclusive right to finish the transaction. On any
// later failure the claim is released with unfinish; on success the state
// is removed from its shard with forget.
func (s *Store) takeFinisher(id uint64, op string) (*txnState, error) {
	t, err := s.getTxn(id)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finishing {
		return nil, fmt.Errorf("%w: %d", ErrTxnDone, id)
	}
	if t.children > 0 {
		return nil, fmt.Errorf("storage: %s of txn %d with %d active subtransactions", op, id, t.children)
	}
	t.finishing = true
	return t, nil
}

func (s *Store) forget(t *txnState) {
	sh := s.txShard(t.id)
	sh.mu.Lock()
	delete(sh.m, t.id)
	sh.mu.Unlock()
}

// Begin starts a top-level transaction and returns its id.
//
// The begin record is appended while the transaction's shard mutex is
// held, so the append and the registration are atomic with respect to a
// fuzzy checkpoint's active-transaction walk: any transaction whose begin
// record precedes the checkpoint record is either in the walked table or
// entirely above the checkpoint's LSN bound — never invisible to both.
func (s *Store) Begin() (uint64, error) {
	if s.closed.Load() {
		return 0, ErrStoreClosed
	}
	if s.follower.Load() {
		return 0, ErrFollowerReadOnly
	}
	return s.register(0)
}

// register draws a transaction id, appends its begin record and registers
// it, the last two under the id's shard mutex. A VersionGC pass that ran
// between the draw and the lock may have settled the id already (its mark
// is past it), and a write stamped with a settled id would read as
// frozen; such an id is never used, and a fresh one is drawn.
func (s *Store) register(parent uint64) (uint64, error) {
	for {
		id := s.nextTxn.Add(1)
		sh := s.txShard(id)
		sh.mu.Lock()
		if id < s.settledBelow.Load() {
			sh.mu.Unlock()
			continue
		}
		lsn, err := s.wal.Append(&LogRecord{Type: RecBegin, Txn: id, Parent: parent})
		if err != nil {
			sh.mu.Unlock()
			return 0, err
		}
		sh.m[id] = &txnState{id: id, parent: parent, firstLSN: lsn}
		sh.mu.Unlock()
		return id, nil
	}
}

// BeginSub starts a subtransaction of parent. Its operations become part
// of the parent if it commits and are rolled back if it aborts; durability
// is decided solely by the outcome of the top-level ancestor.
func (s *Store) BeginSub(parent uint64) (uint64, error) {
	if s.closed.Load() {
		return 0, ErrStoreClosed
	}
	if s.follower.Load() {
		return 0, ErrFollowerReadOnly
	}
	p, err := s.lookupActive(parent)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	if p.finishing {
		p.mu.Unlock()
		return 0, fmt.Errorf("%w: %d", ErrTxnDone, parent)
	}
	p.children++
	p.mu.Unlock()
	id, err := s.register(parent)
	if err != nil {
		p.mu.Lock()
		p.children--
		p.mu.Unlock()
	}
	return id, err
}

// Commit finishes the transaction. A top-level commit appends its commit
// record, stamped with the next commit timestamp, and then waits on the
// log's group commit for durability — one force covers every commit that
// joined while the previous force was in flight — and publishes. A
// subtransaction commit merges its operations into the parent, deferring
// durability to the top-level outcome.
func (s *Store) Commit(id uint64) error {
	if s.follower.Load() {
		return ErrFollowerReadOnly
	}
	t, err := s.takeFinisher(id, "commit")
	if err != nil {
		return err
	}
	if t.parent != 0 {
		return s.commitSub(t)
	}
	lsn, err := s.appendCommit(t)
	if err != nil {
		t.unfinish()
		return err
	}
	if err := s.waitDurable(lsn + 1); err != nil && lsn >= s.wal.Flushed() {
		// The force failed short of this record, and the log is sealed: it
		// never will be durable, so take it off the queue. (A record
		// already covered stands.)
		s.tsMu.Lock()
		if i := slices.IndexFunc(s.unpublished, func(e pubEntry) bool { return e.t == t }); i >= 0 {
			s.unpublished = slices.Delete(s.unpublished, i, i+1)
		}
		s.tsMu.Unlock()
		t.unfinish()
		return err
	}
	s.publishCommits()
	s.releaseUndo(t.res)
	s.forget(t)
	return nil
}

// commitSub commits subtransaction t into its parent.
func (s *Store) commitSub(t *txnState) error {
	if _, err := s.wal.Append(&LogRecord{Type: RecCommit, Txn: t.id}); err != nil {
		t.unfinish()
		return err
	}
	if p, _ := s.getTxn(t.parent); p != nil {
		p.mu.Lock()
		p.ops = append(p.ops, t.ops...)
		// Reservations move with the operations: the parent's abort
		// would undo them, so it inherits the right to the space.
		p.res = append(p.res, t.res...)
		// The sub's id (and those of its own committed descendants)
		// ride to the top-level outcome: the root's commit stamps them
		// all with its commit timestamp.
		p.merged = append(append(p.merged, t.id), t.merged...)
		p.children--
		p.mu.Unlock()
	}
	// Forwarding entry before forget: once the sub leaves the active
	// table, snapshot readers must resolve its stamps through the
	// parent's (eventual) outcome instead of treating them as frozen.
	s.tsMu.Lock()
	s.mergedInto[t.id] = t.parent
	s.tsMu.Unlock()
	s.forget(t)
	return nil
}

// pubEntry is a top-level commit awaiting publication: its commit
// record's LSN and the timestamp the record carries.
type pubEntry struct {
	lsn uint64
	ts  uint64
	t   *txnState
}

// appendCommit takes the next commit timestamp, appends t's commit record
// carrying it, and queues the commit for publication, all under commitMu:
// timestamp, commit-record LSN and queue order are one order.
func (s *Store) appendCommit(t *txnState) (uint64, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	ts := s.lastTS + 1
	lsn, err := s.wal.Append(&LogRecord{Type: RecCommit, Txn: t.id, TS: ts})
	if err != nil {
		return 0, err
	}
	s.lastTS = ts
	// Kill window: the commit record exists but has not been forced. A
	// crash or error here leaves the transaction's outcome indeterminate
	// — the record may or may not survive — exactly like a commit whose
	// acknowledgement was lost. Callers (and the torture harness) must
	// treat a Commit error as "unknown", not "aborted". An error returns
	// unqueued, so no later force publishes it here (a follower: §14).
	if err := faults.Check(faults.StoreCommit); err != nil {
		return 0, err
	}
	s.tsMu.Lock()
	s.unpublished = append(s.unpublished, pubEntry{lsn: lsn, ts: ts, t: t})
	s.tsMu.Unlock()
	return lsn, nil
}

// waitDurable waits for the log's group commit to make every record below
// upTo durable and keeps the group-commit metrics: a forcer reports the
// batch it forced, and a caller whose records were not yet durable is
// timed.
func (s *Store) waitDurable(upTo uint64) error {
	var start time.Time
	wh := s.groupWait.Load()
	if wh != nil && upTo > s.wal.Flushed() {
		start = time.Now()
	}
	batch, err := s.wal.WaitDurable(upTo)
	if !start.IsZero() {
		wh.ObserveDuration(time.Since(start))
	}
	if batch > 0 {
		s.groupForces.Add(1)
		s.groupWaiters.Add(uint64(batch))
		if h := s.groupBatch.Load(); h != nil {
			h.Observe(float64(batch))
		}
	}
	return err
}

// publishCommits publishes the durable prefix of the commit queue: the
// stamps of every commit whose record is below the flushed watermark, in
// queue order, then the clock advanced to the last — so a snapshot never
// sees a later timestamp before an earlier one is installed. Every
// committer runs it once its own record is durable, so its commit is
// published when Commit returns, by itself or by a batch-mate.
func (s *Store) publishCommits() {
	durable := s.wal.Flushed()
	s.tsMu.Lock()
	n := 0
	for ; n < len(s.unpublished) && s.unpublished[n].lsn < durable; n++ {
		s.stampLocked(s.unpublished[n].t, s.unpublished[n].ts)
	}
	if n > 0 {
		s.commitTS.Store(s.unpublished[n-1].ts)
		s.unpublished = slices.Delete(s.unpublished, 0, n)
	}
	s.tsMu.Unlock()
}

// stampLocked installs ts as the commit timestamp of t and of every
// subtransaction that merged into it. Caller holds tsMu and advances the
// clock afterwards.
func (s *Store) stampLocked(t *txnState, ts uint64) {
	s.cts[t.id] = ts
	for _, m := range t.merged {
		s.cts[m] = ts
		delete(s.mergedInto, m)
	}
}

// Abort rolls back every operation of the transaction. Each undo step is
// logged as a compensation (CLR) record before it is applied, and the abort
// record — meaning "rollback complete" — is appended last, so a crash at
// any point leaves recovery enough information to finish or redo the
// rollback.
func (s *Store) Abort(id uint64) error {
	if s.follower.Load() {
		return ErrFollowerReadOnly
	}
	t, err := s.takeFinisher(id, "abort")
	if err != nil {
		return err
	}
	abortLSN, err := s.rollback(t)
	if err != nil {
		t.unfinish()
		return err
	}
	if t.parent != 0 {
		if p, _ := s.getTxn(t.parent); p != nil {
			p.mu.Lock()
			p.children--
			p.mu.Unlock()
		}
	} else if err := s.waitDurable(abortLSN + 1); err != nil {
		t.unfinish()
		return err
	}
	s.dropMerged(t)
	s.releaseUndo(t.res)
	s.forget(t)
	return nil
}

// rollback compensates t's operations newest first, each CLR logged and
// applied under its page's latch, then appends t's abort record — meaning
// "rollback complete" — and returns its LSN. A crash at any point leaves
// recovery enough to finish or redo the rollback. Abort and Promote share
// it.
func (s *Store) rollback(t *txnState) (uint64, error) {
	t.mu.Lock()
	ops := t.ops
	t.mu.Unlock()
	for i := len(ops) - 1; i >= 0; i-- {
		// Kill window: crashes here land mid-rollback, leaving some
		// operations compensated and some not; recovery must finish the job.
		if err := faults.Check(faults.StoreAbortUndo); err != nil {
			return 0, err
		}
		if err := s.compensate(ops[i]); err != nil {
			return 0, fmt.Errorf("storage: abort txn %d: %w", t.id, err)
		}
		// Compensated, so a retried rollback does not undo it twice — the
		// follower pops it at the CLR just the same.
		t.mu.Lock()
		t.ops = ops[:i]
		t.mu.Unlock()
	}
	return s.wal.Append(&LogRecord{Type: RecAbort, Txn: t.id})
}

// dropMerged drops the forwarding entries of t's committed descendants when
// t aborts: their effects were undone with t's, so none of their writes
// survive to be resolved (an id with no entry resolves frozen).
func (s *Store) dropMerged(t *txnState) {
	if len(t.merged) == 0 {
		return
	}
	s.tsMu.Lock()
	for _, m := range t.merged {
		delete(s.mergedInto, m)
	}
	s.tsMu.Unlock()
}

// compensationFor describes the undo of a forward operation as a redo-able
// forward operation of its own.
func compensationFor(rec *LogRecord) *LogRecord {
	switch rec.Type {
	case RecInsert:
		return &LogRecord{Type: RecDelete, Txn: rec.Txn, CLR: true, RID: rec.RID, Before: rec.After}
	case RecDelete:
		return &LogRecord{Type: RecInsert, Txn: rec.Txn, CLR: true, RID: rec.RID, After: rec.Before}
	case RecUpdate:
		return &LogRecord{Type: RecUpdate, Txn: rec.Txn, CLR: true, RID: rec.RID, Before: rec.After, After: rec.Before}
	case RecIdxCreate, RecIdxDrop:
		// Index DDL is logical: the CLR cancels the definition change but
		// has no physical effect (the durable index catalog record is
		// rolled back by its own page CLRs).
		return &LogRecord{Type: rec.Type, Txn: rec.Txn, CLR: true, After: rec.After}
	default:
		// RecAlloc has no undo; emit a no-op CLR so counts stay aligned.
		return &LogRecord{Type: RecAlloc, Txn: rec.Txn, CLR: true, RID: rec.RID}
	}
}

// compensate undoes one logged operation: it logs the compensation (CLR)
// record and applies the reversal, both while holding the target page's
// latch. Appending the CLR under the latch matters for fuzzy checkpoints:
// every log record that will dirty a page is thereby ordered (by that
// page's latch) against the checkpoint's dirty-page walk, so the walk
// either sees the dirty frame or the CLR's LSN lies above the checkpoint's
// own record — never a hole below the redo point.
func (s *Store) compensate(rec *LogRecord) error {
	if rec.Type.logical() {
		// Logical records: log the cancellation, nothing to reverse on a page.
		_, err := s.wal.Append(compensationFor(rec))
		return err
	}
	page, err := s.pool.Fetch(rec.RID.Page)
	if err != nil {
		return err
	}
	defer s.pool.Unpin(rec.RID.Page, true)
	clr := compensationFor(rec)
	lsn, err := s.wal.Append(clr)
	if err != nil {
		return err
	}
	return s.undoOpLatched(page, rec, lsn)
}

// undoOpLatched reverses one logged operation on its already-latched page.
// Undo is lenient about already-reversed effects so it stays idempotent
// under crash-recovery replay.
func (s *Store) undoOpLatched(page *Page, rec *LogRecord, stampLSN uint64) error {
	switch rec.Type {
	case RecInsert:
		if page.Live(rec.RID.Slot) {
			if err := page.Delete(rec.RID.Slot); err != nil {
				return err
			}
		}
		// An insert into a reused tombstone pushed a "did not exist"
		// version, and registerUnresolved pushes one for every insert
		// before recovery or Promote undo; take it back.
		s.popChain(rec.RID, rec.Txn)
	case RecDelete:
		if !page.Live(rec.RID.Slot) {
			if err := page.InsertAt(rec.RID.Slot, rec.Before); err != nil {
				return err
			}
		}
		xmin, _ := s.popChain(rec.RID, rec.Txn)
		page.SetXmin(rec.RID.Slot, xmin)
	case RecUpdate:
		if page.Live(rec.RID.Slot) {
			if err := page.Update(rec.RID.Slot, rec.Before); err != nil {
				return err
			}
		} else if err := page.InsertAt(rec.RID.Slot, rec.Before); err != nil {
			return err
		}
		// The popped entry's xmin is the restored state's true creator.
		// Recovery and Promote undo pop the entries registerUnresolved
		// pushed again.
		xmin, _ := s.popChain(rec.RID, rec.Txn)
		page.SetXmin(rec.RID.Slot, xmin)
	case RecAlloc:
		// Allocation is not undone; the empty page is simply reusable.
	default:
		return fmt.Errorf("storage: cannot undo %v record", rec.Type)
	}
	page.SetLSN(stampLSN)
	s.noteFree(page)
	return nil
}

// Insert stores data as a new record of file under transaction id: on a
// page of that file with room, or on a new page of it.
func (s *Store) Insert(id uint64, file FileID, data []byte) (RID, error) {
	if len(data) > MaxRecordSize {
		return RID{}, ErrRecordTooBig
	}
	if s.follower.Load() {
		return RID{}, ErrFollowerReadOnly
	}
	t, err := s.lookupActive(id)
	if err != nil {
		return RID{}, err
	}
	page, err := s.pageWithSpace(id, file, len(data))
	if err != nil {
		return RID{}, err
	}
	defer s.pool.Unpin(page.ID, true)
	oldSlots := page.NumSlots()
	slot, err := page.InsertSkipping(data, s.slotFilter(page.ID))
	if err != nil {
		return RID{}, err
	}
	rid := RID{Page: page.ID, Slot: slot}
	rec := &LogRecord{Type: RecInsert, Txn: id, RID: rid, After: cloneBytes(data)}
	if _, err := s.wal.Append(rec); err != nil {
		return RID{}, err
	}
	s.wrote(t, page, rec, 0, slot < oldSlots)
	return rid, nil
}

// wrote finishes a logged forward write whose page effect is in place,
// under the page latch: it stamps the page with the record's LSN, pushes
// the version the write displaced, stamps the slot's creator, joins the
// record to its transaction's operations and notes the page's free space.
// oldXmin is the creator of the state an update or delete displaced;
// reused says an insert took a tombstoned slot. The leader's write paths
// call it after appending rec, a follower after ingesting it: one history,
// one bookkeeping.
func (s *Store) wrote(t *txnState, page *Page, rec *LogRecord, oldXmin uint64, reused bool) {
	page.SetLSN(rec.LSN)
	switch rec.Type {
	case RecInsert:
		if reused {
			// Push the "record absent" state this insert displaced, created
			// by whoever tombstoned the slot, so a snapshot between that
			// delete and this insert sees neither value.
			s.pushChain(rec.RID, chainEntry{writer: rec.Txn, xmin: s.priorDeleter(rec.RID)})
		}
		page.SetXmin(rec.RID.Slot, rec.Txn)
	case RecUpdate:
		s.pushChain(rec.RID, chainEntry{writer: rec.Txn, xmin: oldXmin, data: rec.Before, exists: true})
		page.SetXmin(rec.RID.Slot, rec.Txn)
	case RecDelete:
		s.pushChain(rec.RID, chainEntry{writer: rec.Txn, xmin: oldXmin, data: rec.Before, exists: true})
	}
	t.addOp(rec)
	s.noteFree(page)
}

// pageWithSpace returns a pinned, latched page of file with at least need
// bytes free, allocating (and logging) a new page of the file when no
// candidate qualifies. The free-space buckets give a handful of candidates
// without scanning every page; the exact free count is re-checked under
// the page latch since a concurrent insert may have consumed the space
// meanwhile.
func (s *Store) pageWithSpace(txn uint64, file FileID, need int) (*Page, error) {
	cands, n := s.spaceCandidates(file, need+slotEntrySize)
	for _, pid := range cands[:n] {
		page, err := s.pool.Fetch(pid)
		if err != nil {
			return nil, err
		}
		if page.FreeSpace()-s.reservedBytes(pid) >= need {
			return page, nil
		}
		s.noteFree(page)
		s.pool.Unpin(pid, false)
	}
	page, err := s.pool.NewPage(file)
	if err != nil {
		return nil, err
	}
	rec := &LogRecord{Type: RecAlloc, Txn: txn, RID: RID{Page: page.ID}, File: file}
	lsn, err := s.wal.Append(rec)
	if err != nil {
		s.pool.Unpin(page.ID, true)
		return nil, err
	}
	page.SetLSN(lsn)
	s.noteFree(page)
	return page, nil
}

// spaceCandidates returns up to spaceProbes pages of file whose recorded
// free space is at least need, smallest-class first so existing pages fill
// before new ones are allocated; out[:n] are the candidates. In the
// boundary class (the one containing need) membership doesn't imply a fit,
// so at most spaceProbes entries are probed there — pages whose leftover
// is smaller than the request are deliberately left to fragment rather
// than rescanned on every insert (bounded at one class width, <256 bytes
// per page). Every page in a higher class fits by construction. Map
// iteration order spreads concurrent inserters across a class's candidates
// instead of funnelling them onto one page.
func (s *Store) spaceCandidates(file FileID, need int) (out [spaceProbes]PageID, n int) {
	s.fsmMu.Lock()
	defer s.fsmMu.Unlock()
	fs := s.files[file]
	if fs == nil {
		return out, 0
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	for c := fsClass(need); c < fsClasses && n < spaceProbes; c++ {
		probes := 0
		boundary := c == fsClass(need)
		for pid := range fs.free[c] {
			avail := s.fsm[pid]
			if r := s.reserves[pid]; r != nil {
				avail -= r.bytes
			}
			if avail >= need {
				out[n] = pid
				if n++; n == spaceProbes {
					break
				}
			}
			if probes++; boundary && probes >= spaceProbes {
				break
			}
		}
	}
	return out, n
}

// reserveUndo sets aside free bytes (and, for deletes, the tombstoned
// slot) on a page until t resolves: no other inserter may consume them, so
// t's rollback can always restore the before-image at its original RID.
// The caller holds the page latch, so the reservation is in place before
// any concurrent insert can see the freed space.
func (s *Store) reserveUndo(t *txnState, e resEntry) {
	s.resMu.Lock()
	r := s.reserves[e.page]
	if r == nil {
		r = &pageReserve{}
		s.reserves[e.page] = r
	}
	r.bytes += e.bytes
	if e.hasSlot {
		if r.slots == nil {
			r.slots = make(map[uint16]int)
		}
		r.slots[e.slot]++
	}
	s.resMu.Unlock()
	t.mu.Lock()
	t.res = append(t.res, e)
	t.mu.Unlock()
}

// releaseUndo drops reservations once their owner resolves: commit makes
// rollback impossible, and a completed abort has consumed them.
func (s *Store) releaseUndo(entries []resEntry) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	for _, e := range entries {
		r := s.reserves[e.page]
		if r == nil {
			continue
		}
		r.bytes -= e.bytes
		if e.hasSlot {
			if r.slots[e.slot]--; r.slots[e.slot] <= 0 {
				delete(r.slots, e.slot)
			}
		}
		if r.bytes <= 0 && len(r.slots) == 0 {
			delete(s.reserves, e.page)
		}
	}
}

// reservedBytes returns the undo-reserved byte count on a page.
func (s *Store) reservedBytes(pid PageID) int {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if r := s.reserves[pid]; r != nil {
		return r.bytes
	}
	return 0
}

// slotFilter returns the reserved-slot predicate inserts into pid must
// respect, or nil when the page has no slot reservations.
func (s *Store) slotFilter(pid PageID) func(uint16) bool {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	r := s.reserves[pid]
	if r == nil || len(r.slots) == 0 {
		return nil
	}
	return func(slot uint16) bool {
		s.resMu.Lock()
		defer s.resMu.Unlock()
		rr := s.reserves[pid]
		return rr != nil && rr.slots[slot] > 0
	}
}

// LogIndexOp appends a logical index-DDL record (RecIdxCreate or
// RecIdxDrop, payload = encoded definition) under transaction id. The
// record joins the transaction's op list so an abort compensates it and a
// follower surfaces it to the apply hook when the transaction commits; it
// has no page effect of its own.
func (s *Store) LogIndexOp(id uint64, typ RecType, payload []byte) error {
	if !typ.logical() {
		return fmt.Errorf("storage: LogIndexOp of %v record", typ)
	}
	if s.follower.Load() {
		return ErrFollowerReadOnly
	}
	t, err := s.lookupActive(id)
	if err != nil {
		return err
	}
	rec := &LogRecord{Type: typ, Txn: id, After: cloneBytes(payload)}
	if _, err := s.wal.Append(rec); err != nil {
		return err
	}
	t.addOp(rec)
	return nil
}

// SetApplyHook installs fn to observe, on a follower, every operation of a
// transaction whose top-level commit record it applies — page operations
// and logical index-DDL records alike, in LSN order, when the commit
// record arrives and before it publishes, each with TS set to the commit
// timestamp. Operations reach the pages as
// they are ingested; the hook sees only committed ones, so upper layers
// keep in-memory directories — the object catalog and secondary-index
// directories — in lock-step with committed replicated state; a leader
// rebuilds those directories by scanning at open instead. Pass nil to
// clear.
func (s *Store) SetApplyHook(fn func(*LogRecord)) {
	s.applyHook.Store(&fn)
}

func (s *Store) applyHookFn() func(*LogRecord) {
	if p := s.applyHook.Load(); p != nil {
		return *p
	}
	return nil
}

// SnapshotFloor returns the oldest timestamp any live snapshot can read
// at (the commit clock when no snapshot is open). State whose removal
// committed at or below the floor is invisible to every present and
// future snapshot — the guard upper layers use to prune their in-memory
// directories.
func (s *Store) SnapshotFloor() uint64 { return s.oldestSnapshot() }

// Read returns a copy of the record at rid — the latest state, no version
// filtering. This is the 2PL read path: the caller's lock manager
// serializes it against writers.
func (s *Store) Read(rid RID) ([]byte, error) {
	var out []byte
	err := s.View(rid, func(data []byte) { out = cloneBytes(data) })
	return out, err
}

// View is Read without the copy: fn sees the record in place, under the
// page latch, and must not retain it.
func (s *Store) View(rid RID, fn func([]byte)) error {
	page, err := s.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer s.pool.Unpin(rid.Page, false)
	s.readLockedN.Add(1)
	data, err := page.Read(rid.Slot)
	if err != nil {
		return err
	}
	fn(data)
	return nil
}

// Update replaces the record at rid, possibly moving it to another page of
// its file when it no longer fits; the (possibly new) RID is returned.
func (s *Store) Update(id uint64, rid RID, data []byte) (RID, error) {
	if len(data) > MaxRecordSize {
		return RID{}, ErrRecordTooBig
	}
	if s.follower.Load() {
		return RID{}, ErrFollowerReadOnly
	}
	t, err := s.lookupActive(id)
	if err != nil {
		return RID{}, err
	}
	page, err := s.pool.Fetch(rid.Page)
	if err != nil {
		return RID{}, err
	}
	old, err := page.Read(rid.Slot)
	if err != nil {
		s.pool.Unpin(rid.Page, false)
		return RID{}, err
	}
	before := cloneBytes(old)
	oldXmin := page.Xmin(rid.Slot)
	file := page.File() // a moved record stays in its file
	// An in-place grow may not eat into space reserved for other
	// transactions' rollbacks; force the move path instead.
	uerr := ErrNoSpace
	if grow := len(data) - len(before); grow <= 0 || page.FreeSpace()-s.reservedBytes(rid.Page) >= grow {
		uerr = page.Update(rid.Slot, data)
	}
	if uerr == nil {
		rec := &LogRecord{Type: RecUpdate, Txn: id, RID: rid, Before: before, After: cloneBytes(data)}
		if _, aerr := s.wal.Append(rec); aerr != nil {
			s.pool.Unpin(rid.Page, true)
			return RID{}, aerr
		}
		if shrink := len(before) - len(data); shrink > 0 {
			s.reserveUndo(t, resEntry{page: rid.Page, bytes: shrink})
		}
		s.wrote(t, page, rec, oldXmin, false)
		s.pool.Unpin(rid.Page, true)
		return rid, nil
	} else if !errors.Is(uerr, ErrNoSpace) {
		s.pool.Unpin(rid.Page, false)
		return RID{}, uerr
	}
	// Record must move: log delete + insert so undo/redo compose.
	if err := page.Delete(rid.Slot); err != nil {
		s.pool.Unpin(rid.Page, false)
		return RID{}, err
	}
	delRec := &LogRecord{Type: RecDelete, Txn: id, RID: rid, Before: before}
	if _, err := s.wal.Append(delRec); err != nil {
		s.pool.Unpin(rid.Page, true)
		return RID{}, err
	}
	s.reserveUndo(t, resEntry{page: rid.Page, bytes: len(before), slot: rid.Slot, hasSlot: true})
	s.wrote(t, page, delRec, oldXmin, false)
	s.pool.Unpin(rid.Page, true)

	newPage, err := s.pageWithSpace(id, file, len(data))
	if err != nil {
		return RID{}, err
	}
	defer s.pool.Unpin(newPage.ID, true)
	oldSlots := newPage.NumSlots()
	slot, err := newPage.InsertSkipping(data, s.slotFilter(newPage.ID))
	if err != nil {
		return RID{}, err
	}
	newRID := RID{Page: newPage.ID, Slot: slot}
	insRec := &LogRecord{Type: RecInsert, Txn: id, RID: newRID, After: cloneBytes(data)}
	if _, err := s.wal.Append(insRec); err != nil {
		return RID{}, err
	}
	s.wrote(t, newPage, insRec, 0, slot < oldSlots)
	return newRID, nil
}

// Delete removes the record at rid.
func (s *Store) Delete(id uint64, rid RID) error {
	if s.follower.Load() {
		return ErrFollowerReadOnly
	}
	t, err := s.lookupActive(id)
	if err != nil {
		return err
	}
	page, err := s.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer s.pool.Unpin(rid.Page, true)
	old, err := page.Read(rid.Slot)
	if err != nil {
		return err
	}
	before := cloneBytes(old)
	oldXmin := page.Xmin(rid.Slot)
	if err := page.Delete(rid.Slot); err != nil {
		return err
	}
	rec := &LogRecord{Type: RecDelete, Txn: id, RID: rid, Before: before}
	if _, err := s.wal.Append(rec); err != nil {
		return err
	}
	s.reserveUndo(t, resEntry{page: rid.Page, bytes: len(before), slot: rid.Slot, hasSlot: true})
	s.wrote(t, page, rec, oldXmin, false)
	return nil
}

// redoOp re-applies one logged operation. Replay is lenient (insert only
// if absent, delete only if present) and the scan replays the whole tail
// in per-page LSN order, so the final state converges to what the log
// defines. Leader and follower alike stamp every page with the LSN of the
// last operation applied to it, under the page latch, so an operation at
// or below the page LSN is already there and is skipped: repeating it is
// not idempotent in space — an insert whose slot a later delete freed may
// no longer fit once later inserts reused the bytes. A follower also
// applies each shipped allocation through here. A redone state is stamped
// with its record's transaction, frozen once recovery is over; a state a
// CLR restored is stamped frozen outright, since its creator is not in the
// record (follower recovery stamps the in-flight ones again). A redone
// allocation formats the page with its file and joins the file's pages.
func (s *Store) redoOp(rec *LogRecord) error {
	if rec.Type.logical() {
		return nil // logical record: no page effect to repeat
	}
	if rec.Type == RecAlloc {
		if err := s.disk.EnsureAllocated(rec.RID.Page); err != nil {
			return err
		}
	}
	page, err := s.pool.Fetch(rec.RID.Page)
	if err != nil {
		return err
	}
	if page.LSN() >= rec.LSN {
		s.pool.Unpin(rec.RID.Page, false)
		return nil
	}
	defer s.pool.Unpin(rec.RID.Page, true)
	xmin := rec.Txn
	if rec.CLR {
		xmin = 0
	}
	switch rec.Type {
	case RecAlloc:
		page.InitPage(rec.File)
		defer s.noteFree(page)
	case RecInsert:
		if !page.Live(rec.RID.Slot) {
			if err := page.InsertAt(rec.RID.Slot, rec.After); err != nil {
				return err
			}
		}
		page.SetXmin(rec.RID.Slot, xmin)
	case RecDelete:
		if page.Live(rec.RID.Slot) {
			if err := page.Delete(rec.RID.Slot); err != nil {
				return err
			}
		}
	case RecUpdate:
		if page.Live(rec.RID.Slot) {
			if err := page.Update(rec.RID.Slot, rec.After); err != nil {
				return err
			}
		} else if err := page.InsertAt(rec.RID.Slot, rec.After); err != nil {
			return err
		}
		page.SetXmin(rec.RID.Slot, xmin)
	}
	page.SetLSN(rec.LSN)
	return nil
}

// rebuildFSM scans all pages to rebuild the free-space map, and with it
// each file's page list, from the page headers after open. A leader also
// formats, and logs the allocation of, every page recovery left
// unformatted: Allocate extends the file before the RecAlloc record is
// appended, so a crash can leave a zeroed page whose allocation died in the
// log buffer. Unlogged, inserts would fill it as an empty page that no
// follower has ever heard of. Such an orphan joins file 0. A follower
// leaves it out until a shipped allocation formats it.
func (s *Store) rebuildFSM(leader bool) error {
	n := s.disk.NumPages()
	for pid := PageID(0); pid < n; pid++ {
		page, err := s.pool.Fetch(pid)
		if err != nil {
			return err
		}
		orphan := !page.formatted()
		if orphan && leader {
			lsn, err := s.wal.Append(&LogRecord{Type: RecAlloc, RID: RID{Page: pid}})
			if err != nil {
				s.pool.Unpin(pid, false)
				return err
			}
			page.InitPage(0)
			page.SetLSN(lsn)
		}
		if !orphan || leader {
			s.noteFree(page)
		}
		s.pool.Unpin(pid, orphan && leader)
	}
	return nil
}

// noteFree records a page's current free space, moving it between its
// file's free-space classes; a page noted for the first time joins its
// file's page list. Callers hold the page latch, so the recorded value is
// exact at the time of the call; fsmMu is a leaf lock.
func (s *Store) noteFree(p *Page) {
	free := p.FreeSpace()
	s.fsmMu.Lock()
	fs := s.files[p.File()]
	if fs == nil {
		fs = &fileSpace{}
		for c := range fs.free {
			fs.free[c] = make(map[PageID]struct{})
		}
		s.files[p.File()] = fs
	}
	if old, ok := s.fsm[p.ID]; !ok {
		i, _ := slices.BinarySearch(fs.pages, p.ID)
		fs.pages = slices.Insert(fs.pages, i, p.ID)
	} else if fsClass(old) != fsClass(free) {
		delete(fs.free[fsClass(old)], p.ID)
	}
	s.fsm[p.ID] = free
	fs.free[fsClass(free)][p.ID] = struct{}{}
	s.fsmMu.Unlock()
}

// FilePages returns the pages of file in ascending order: the pages a scan
// of the file reads. A page allocated after the call holds only records
// written after it.
func (s *Store) FilePages(file FileID) []PageID {
	s.fsmMu.Lock()
	defer s.fsmMu.Unlock()
	if fs := s.files[file]; fs != nil {
		return slices.Clone(fs.pages)
	}
	return nil
}

// ForEachRecord scans every record in the store under a fresh snapshot:
// only committed state is visible, so an in-flight insert (or a
// not-yet-resolved delete) — a leader's, or one a follower holds shipped —
// never leaks into the scan. It is also the crash-torture harness's
// verification primitive: after a leader's recovery everything on the
// pages is committed, so the snapshot scan equals the raw one.
func (s *Store) ForEachRecord(fn func(RID, []byte) error) error {
	if s.closed.Load() {
		return ErrStoreClosed
	}
	sn := s.Snapshot()
	defer sn.Close()
	return s.ForEachRecordAt(sn, fn)
}

// ForEachRecordLatest is the unfiltered scan ForEachRecord used to be:
// every live slot's latest state, dirty writes included. It exists for
// recovery-internal verification (the torture harness cross-checks it
// against the snapshot scan after reopen); concurrent use sees
// uncommitted data by design.
func (s *Store) ForEachRecordLatest(fn func(RID, []byte) error) error {
	if s.closed.Load() {
		return ErrStoreClosed
	}
	return s.forEachPage(nil, fn)
}

// forEachPage calls fn with a copy of every record ViewPage shows on
// every page of the store, stopping at fn's first error.
func (s *Store) forEachPage(sn *Snapshot, fn func(RID, []byte) error) error {
	var ferr error
	visit := func(rid RID, data []byte) bool {
		ferr = fn(rid, cloneBytes(data))
		return ferr == nil
	}
	n := s.disk.NumPages()
	for pid := PageID(0); pid < n && ferr == nil; pid++ {
		if err := s.ViewPage(sn, pid, visit); err != nil {
			return err
		}
	}
	return ferr
}

// ViewPage calls fn, under the page latch, with each record of page pid:
// under snapshot sn every slot's version visible to it — tombstoned slots
// included, since an older version may still be visible — and without one
// (sn nil) each live slot's latest state, the 2PL read. fn must not retain
// data; returning false stops the walk. It fetches the page once: the
// page-at-a-time half of a file scan.
func (s *Store) ViewPage(sn *Snapshot, pid PageID, fn func(RID, []byte) bool) error {
	page, err := s.pool.Fetch(pid)
	if err != nil {
		return err
	}
	defer s.pool.Unpin(pid, false)
	for slot := uint16(0); slot < page.NumSlots(); slot++ {
		rid := RID{Page: pid, Slot: slot}
		var data []byte
		if sn != nil {
			var exists bool
			var walked int
			if data, exists, walked = s.readVersion(sn, page, rid); !exists {
				continue
			}
			s.sampleChainLen(s.readSnapshotN.Add(1), walked)
		} else if !page.Live(slot) {
			continue
		} else if data, err = page.Read(slot); err != nil {
			return err
		} else {
			s.readLockedN.Add(1)
		}
		if !fn(rid, data) {
			return nil
		}
	}
	return nil
}

// SamePages reports the first page at which follower fst differs from its
// leader ld — in LSN, file, slot count or a live slot's bytes — at equal log
// ends: both applied one history, so their pages are equal. A
// verification aid; neither store may be writing.
func SamePages(ld, fst *Store) error {
	if le, fe := ld.wal.End(), fst.wal.End(); le != fe {
		return fmt.Errorf("storage: pages compared at log ends %d (leader) and %d (follower)", le, fe)
	}
	if n, m := ld.disk.NumPages(), fst.disk.NumPages(); n != m {
		return fmt.Errorf("storage: leader has %d pages, follower %d", n, m)
	}
	for pid := PageID(0); pid < ld.disk.NumPages(); pid++ {
		if err := samePage(ld, fst, pid); err != nil {
			return err
		}
	}
	return nil
}

// samePage compares page pid of two stores, both latched.
func samePage(ld, fst *Store, pid PageID) error {
	a, err := ld.pool.Fetch(pid)
	if err != nil {
		return err
	}
	defer ld.pool.Unpin(pid, false)
	b, err := fst.pool.Fetch(pid)
	if err != nil {
		return err
	}
	defer fst.pool.Unpin(pid, false)
	same := a.LSN() == b.LSN() && a.File() == b.File() && a.NumSlots() == b.NumSlots()
	for slot := uint16(0); same && slot < a.NumSlots(); slot++ {
		x, xerr := a.Read(slot)
		y, yerr := b.Read(slot)
		same = (xerr == nil) == (yerr == nil) && bytes.Equal(x, y)
	}
	if !same {
		return fmt.Errorf("storage: page %d differs: lsn %d, file %d and %d slots on the leader, lsn %d, file %d and %d slots on the follower",
			pid, a.LSN(), a.File(), a.NumSlots(), b.LSN(), b.File(), b.NumSlots())
	}
	return nil
}

// ActiveTxns returns the ids of transactions still in flight (the undo
// pass, checkpointing, tests).
func (s *Store) ActiveTxns() []uint64 {
	var out []uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id := range sh.m {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	return out
}

// IsFollower reports whether the store is in follower (read-only) mode.
func (s *Store) IsFollower() bool { return s.follower.Load() }

// LogEnd returns the LSN one past the last appended log record.
func (s *Store) LogEnd() uint64 { return s.wal.End() }

// ReplApplied returns the log position whose effects are fully applied on
// a follower: the log end as of the last completed ReplIngest batch (or
// open-time recovery). The log end itself advances at ingest, before the
// batch's records have been applied — readers that need the shipped state
// to be visible must wait on this watermark, not on LogEnd.
func (s *Store) ReplApplied() uint64 { return s.replApplied.Load() }

// LogFlushed returns the log's durability watermark.
func (s *Store) LogFlushed() uint64 { return s.wal.Flushed() }

// LogStart returns the earliest LSN still retained in the log.
func (s *Store) LogStart() uint64 { return s.wal.Start() }

// FlushLog forces the whole log buffer (follower ack path; leaders go
// through the log's group commit).
func (s *Store) FlushLog() error { return s.wal.Flush(^uint64(0)) }

// LogCursor returns a shipping cursor over the flushed log from LSN from.
// Cursors read segment files directly and never force the log themselves.
func (s *Store) LogCursor(from uint64) *LogCursor { return s.wal.NewCursor(from) }

// SetRetainFloor installs fn as the archive-retention floor: Checkpoint
// prunes archived segments only below min(redo point, fn()). A shipping
// server uses it to keep segments a lagging follower still needs; fn
// returning ok=false means "no constraint". Pass nil to clear.
func (s *Store) SetRetainFloor(fn func() (uint64, bool)) {
	s.retainMu.Lock()
	s.retainFn = fn
	s.retainMu.Unlock()
}

func (s *Store) retainFloor(redo uint64) uint64 {
	s.retainMu.Lock()
	fn := s.retainFn
	s.retainMu.Unlock()
	if fn != nil {
		if floor, ok := fn(); ok && floor < redo {
			return floor
		}
	}
	return redo
}

// RecoveryStats reports what the last Open's recovery actually did — the
// proof that fuzzy checkpoints bound recovery work by the log tail rather
// than the log length.
func (s *Store) RecoveryStats() RecoveryStats { return s.recStats }

// PoolStats exposes buffer pool hit/miss counters for the benchmarks.
func (s *Store) PoolStats() (hits, misses uint64) {
	hits, misses, _ = s.pool.Stats()
	return hits, misses
}

// GroupCommitStats returns the group-commit force count and the number of
// waiters those forces covered; waiters/batches is the mean batch size
// (tests and EXPERIMENTS.md assertions).
func (s *Store) GroupCommitStats() (batches, waiters uint64) {
	return s.groupForces.Load(), s.groupWaiters.Load()
}

// WALStats exposes the WAL activity counters (appends, append bytes,
// flushes, fsyncs) without going through a metrics registry.
func (s *Store) WALStats() (appends, appendBytes, flushes, fsyncs uint64) {
	return s.wal.Stats()
}

// RegisterMetrics wires the storage manager into a metrics registry: WAL
// append/flush/fsync volume, buffer pool hit/miss/write-back counters with
// a derived hit ratio, page residency, in-flight storage transactions, and
// the group-commit batch-size and waiter-latency distributions.
// All counters are read-through views over the layer's own atomics.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sentinel_storage_wal_appends_total",
		"Log records appended to the write-ahead log.",
		func() uint64 { a, _, _, _ := s.wal.Stats(); return a })
	r.CounterFunc("sentinel_storage_wal_append_bytes_total",
		"Bytes appended to the write-ahead log (record framing included).",
		func() uint64 { _, b, _, _ := s.wal.Stats(); return b })
	r.CounterFunc("sentinel_storage_wal_flushes_total",
		"WAL buffer flushes performed (log forced to the OS/file).",
		func() uint64 { _, _, f, _ := s.wal.Stats(); return f })
	r.CounterFunc("sentinel_storage_wal_fsyncs_total",
		"WAL fsyncs issued (sync mode only).",
		func() uint64 { _, _, _, fs := s.wal.Stats(); return fs })
	r.CounterFunc("sentinel_storage_wal_segment_rolls_total",
		"WAL segments sealed and rolled.",
		s.wal.Rolls)
	r.GaugeFunc("sentinel_storage_wal_retained_bytes",
		"Log bytes retained on disk (active tail plus sealed and archived segments).",
		func() float64 { return float64(s.wal.End() - s.wal.Start()) })
	r.CounterFunc("sentinel_storage_group_commit_batches_total",
		"Group-commit forces issued on behalf of at least one waiter.",
		s.groupForces.Load)
	r.CounterFunc("sentinel_storage_group_commit_waiters_total",
		"Committers whose durability wait was covered by a group-commit force.",
		s.groupWaiters.Load)
	s.groupBatch.Store(r.Histogram("sentinel_storage_group_commit_batch_size",
		"Commits covered by one group-commit force.",
		[]float64{1, 2, 4, 8, 16, 32, 64}))
	s.groupWait.Store(r.Histogram("sentinel_storage_group_commit_wait_seconds",
		"Time a committer waited for its group-commit force.",
		obs.DurationBuckets()))
	r.CounterFunc("sentinel_storage_buffer_hits_total",
		"Page lookups served from the buffer pool.",
		func() uint64 { h, _, _ := s.pool.Stats(); return h })
	r.CounterFunc("sentinel_storage_buffer_misses_total",
		"Page lookups that had to read from disk.",
		func() uint64 { _, m, _ := s.pool.Stats(); return m })
	r.CounterFunc("sentinel_storage_page_reads_total",
		"Pages read from disk (every buffer miss issues one read).",
		func() uint64 { _, m, _ := s.pool.Stats(); return m })
	r.CounterFunc("sentinel_storage_page_writes_total",
		"Dirty pages written back to disk (eviction, checkpoint, shutdown).",
		func() uint64 { _, _, w := s.pool.Stats(); return w })
	r.GaugeFunc("sentinel_storage_buffer_resident",
		"Pages currently cached in the buffer pool.",
		func() float64 { return float64(s.pool.Resident()) })
	r.GaugeFunc("sentinel_storage_buffer_hit_ratio",
		"Fraction of page lookups served from the pool (0 when idle).",
		func() float64 {
			h, m, _ := s.pool.Stats()
			if h+m == 0 {
				return 0
			}
			return float64(h) / float64(h+m)
		})
	r.GaugeFunc("sentinel_storage_active_txns",
		"Storage transactions (all nesting levels) currently in flight.",
		func() float64 {
			n := 0
			for i := range s.shards {
				sh := &s.shards[i]
				sh.mu.Lock()
				n += len(sh.m)
				sh.mu.Unlock()
			}
			return float64(n)
		})
	r.CounterFunc("sentinel_storage_read_snapshot_total",
		"Record reads served by the MVCC snapshot path (no lock-manager locks).",
		s.readSnapshotN.Load)
	r.CounterFunc("sentinel_storage_read_locked_total",
		"Record reads served by the latest-state (2PL) path.",
		s.readLockedN.Load)
	r.CounterFunc("sentinel_storage_gc_versions_reclaimed_total",
		"Version-chain entries reclaimed by the MVCC garbage collector.",
		s.gcReclaimed.Load)
	s.chainLenHist.Store(r.Histogram("sentinel_storage_version_chain_length",
		"Version-chain entries walked per snapshot read, observed on one read in 64.",
		obs.DepthBuckets()))
	r.GaugeFunc("sentinel_storage_snapshot_age",
		"Commit timestamps elapsed since the oldest live snapshot (0 when none open).",
		func() float64 {
			if ts, ok := s.oldestLiveSnapshot(); ok {
				return float64(s.commitTS.Load() - ts)
			}
			return 0
		})
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
