package storage

import (
	"sync"
	"sync/atomic"
)

// MVCC snapshot reads (DESIGN.md §11).
//
// The store keeps, next to the latest record state on the slotted pages, an
// in-memory chain of displaced versions per RID. A snapshot is a single
// atomic load of the commit-timestamp clock; a snapshot reader resolves the
// raw creator stamps (page xmin, chain entries) through the
// commit-timestamp table and walks the chain from its newest entry back
// until it finds the first state whose creator committed at or before its
// timestamp.
// Readers take no lock-manager locks — consistency comes from the page
// latch (held across the walk) and from the install-before-advance commit
// protocol below.
//
// Commit protocol: a top-level commit's record carries its commit
// timestamp, taken in commit-record LSN order (appendCommit). Once the
// WAL force covers the record, commits are published as a log-ordered
// prefix (publishCommits): under tsMu, cts[id] = ts is installed for the
// root and every merged subtransaction of each durable commit in order,
// then the clock advances to the last of them. Because the table entries
// exist before any reader can observe the new clock value, a reader
// holding snapshot S is guaranteed to resolve every transaction with
// commit timestamp ≤ S; conversely a transaction still in the active table
// when the snapshot was taken must commit with a timestamp > S, so
// treating active transactions as invisible is always correct.
//
// Unknown stamps are "frozen": committed before every live snapshot,
// visible to all. This is sound because the only ways a transaction leaves
// both the active table and the commit table are (a) being pruned from the
// commit table by GC — only once its timestamp is at or below every live
// snapshot — and (b) aborting, which physically removes its effects from
// pages and chains under the page latch before the transaction is
// forgotten. Recovery leaves every committed record frozen (stamp replayed
// from the op's txn id, table empty), which is exactly right: no snapshot
// survives a crash. A follower's in-flight writes stay in flight: their
// transactions are registered again (registerUnresolved).
//
// The settled-stamp mark makes "frozen" cheap to decide. Each VersionGC
// pass publishes settledBelow, the smallest id that may still be
// unresolved: registered in the active table, holding a commit-table
// entry, or forwarding through mergedInto. Ids only grow, so an id below
// the mark has left all three for good, and resolveStamp answers "frozen"
// for it with one atomic load. The pass computes the mark holding every
// transaction shard mutex, so no transaction can register or leave the
// active table while it looks; Begin draws its id before it takes its
// shard mutex, and a pass that runs in that gap may pass the id, so Begin
// checks the mark under the shard mutex and draws again if it has. A
// follower keeps the mark at 0: it cannot see a leader transaction that
// has shipped nothing yet.
//
// A settled row's read takes no mutex at all: chainPages counts, per
// page-id bucket, the RIDs that have a version chain. A writer pushes a
// chain under the page latch the reader holds, so a zero read under the
// latch is exact, and GC removes only chains no live snapshot needs.

// chainEntry is one displaced version of a record: the state a newer write
// pushed off the page. data/exists describe the displaced state itself
// (exists=false means "the record did not exist" — pushed when an insert
// reuses a tombstoned slot); xmin is the raw creator stamp of that state;
// writer is the transaction whose write displaced it, i.e. the creator of
// the next-newer state.
type chainEntry struct {
	writer uint64
	xmin   uint64
	data   []byte
	exists bool
}

// chainShardCount stripes the version-chain table; power of two.
const chainShardCount = 16

// chainPageBuckets sizes the per-page chain count (chainPages); power of
// two. Page ids are dense from 0, so a store of up to this many pages
// counts every page apart.
const chainPageBuckets = 1 << 13

// chainLenSample is how many snapshot reads share one chain-length
// observation.
const chainLenSample = 64

// versionChain is one RID's displaced versions, oldest first: a write
// appends (amortised O(1)), an abort pops the tail, and pruning drops a
// prefix. prunedAt is the GC horizon the chain was last pruned at; pruning
// again at the same horizon could reclaim nothing, so it is skipped.
type versionChain struct {
	entries  []chainEntry
	prunedAt uint64
}

type chainShard struct {
	mu sync.Mutex
	m  map[RID]versionChain
}

// snapShardCount stripes the snapshot registry; power of two.
const snapShardCount = 16

type snapShard struct {
	mu sync.Mutex
	m  map[uint64]int // snapshot timestamp -> open snapshot count
}

// pruneChainLen is the chain length past which a writer's push runs an
// opportunistic prune against the last GC horizon, bounding hot-record
// chains between background passes. A prune runs at most once per chain
// per horizon.
const pruneChainLen = 8

// Snapshot is a point-in-time read view over the store. It pins every
// version a reader at its timestamp could need until Close releases it to
// the garbage collector. The zero root means a pure observer; a snapshot
// taken on behalf of a transaction family (SnapshotFor) additionally sees
// that family's own uncommitted writes.
type Snapshot struct {
	s      *Store
	ts     uint64
	root   uint64
	shard  int
	closed atomic.Bool
}

// TS returns the snapshot's commit-timestamp horizon: every transaction
// with commit timestamp ≤ TS is visible.
func (sn *Snapshot) TS() uint64 { return sn.ts }

// Snapshot captures a read view of everything committed so far. The caller
// must Close it; an unclosed snapshot pins old versions forever.
func (s *Store) Snapshot() *Snapshot { return s.SnapshotFor(0) }

// SnapshotFor captures a read view on behalf of the transaction family
// rooted at root: committed state as of now, plus root's family's own
// uncommitted writes. Used for rule-condition evaluation inside the
// triggering transaction.
func (s *Store) SnapshotFor(root uint64) *Snapshot {
	shard := int(s.snapSeq.Add(1) % snapShardCount)
	sh := &s.snaps[shard]
	// The clock is loaded under the shard mutex so the garbage collector's
	// horizon scan (which takes each shard mutex) cannot observe "no
	// snapshots" while a reader holds a timestamp older than the clock
	// value the collector read before its scan.
	sh.mu.Lock()
	ts := s.commitTS.Load()
	sh.m[ts]++
	sh.mu.Unlock()
	return &Snapshot{s: s, ts: ts, root: root, shard: shard}
}

// Close releases the snapshot, letting GC reclaim versions only it needed.
// Close is idempotent.
func (sn *Snapshot) Close() {
	if sn == nil || !sn.closed.CompareAndSwap(false, true) {
		return
	}
	sh := &sn.s.snaps[sn.shard]
	sh.mu.Lock()
	if n := sh.m[sn.ts] - 1; n <= 0 {
		delete(sh.m, sn.ts)
	} else {
		sh.m[sn.ts] = n
	}
	sh.mu.Unlock()
}

func (s *Store) chainShard(rid RID) *chainShard {
	return &s.chains[(uint64(rid.Page)*31+uint64(rid.Slot))%chainShardCount]
}

// chainCount is the number of RIDs with a version chain in page pid's
// bucket.
func (s *Store) chainCount(pid PageID) *atomic.Int32 {
	return &s.chainPages[pid%chainPageBuckets]
}

// readLock takes a mutex on the snapshot read path, first calling the
// test probe when one is set.
func (s *Store) readLock(mu *sync.Mutex) {
	if p := s.readLockProbe.Load(); p != nil {
		(*p)()
	}
	mu.Lock()
}

// pushChain records a displaced version for rid. The caller holds the page
// latch, so pushes for one RID are ordered exactly like the writes that
// caused them: appended oldest first, commit timestamps monotone up the
// chain.
func (s *Store) pushChain(rid RID, e chainEntry) {
	sh := s.chainShard(rid)
	sh.mu.Lock()
	c, had := sh.m[rid]
	c.entries = append(c.entries, e)
	if h := s.gcHorizon.Load(); len(c.entries) > pruneChainLen && h != c.prunedAt {
		c.entries, c.prunedAt = s.pruneChain(c.entries, h), h
	}
	// Never empty: the prune keeps the entry just pushed, whose writer is
	// still registered.
	sh.m[rid] = c
	if !had {
		s.chainCount(rid.Page).Add(1)
	}
	sh.mu.Unlock()
}

// dropChainLocked deletes rid's chain. Caller holds the chain's shard
// mutex.
func (s *Store) dropChainLocked(sh *chainShard, rid RID) {
	delete(sh.m, rid)
	s.chainCount(rid.Page).Add(-1)
}

// priorDeleter returns the writer of rid's newest chain entry — the
// creator of the slot's current state, for a tombstoned slot its deleter —
// or zero when that state is frozen. Caller holds the page latch.
func (s *Store) priorDeleter(rid RID) uint64 {
	sh := s.chainShard(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.m[rid].entries; len(e) > 0 {
		return e[len(e)-1].writer
	}
	return 0
}

// popChain removes the newest chain entry for rid if it was pushed by
// writer, returning the displaced state's creator stamp so an abort can
// restore the page xmin. Caller holds the page latch; undo runs in strict
// reverse operation order, so the aborting transaction's entry — when it
// pushed one — is exactly the tail.
func (s *Store) popChain(rid RID, writer uint64) (xmin uint64, ok bool) {
	sh := s.chainShard(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.m[rid]
	n := len(c.entries)
	if n == 0 || c.entries[n-1].writer != writer {
		return 0, false
	}
	xmin = c.entries[n-1].xmin
	if n == 1 {
		s.dropChainLocked(sh, rid)
		return xmin, true
	}
	c.entries[n-1] = chainEntry{}
	c.entries = c.entries[:n-1]
	sh.m[rid] = c
	return xmin, true
}

// commitTSOf resolves a raw creator stamp: committed at ts (ok=true), or
// not committed (ok=false). See resolveStamp for the rules.
func (s *Store) commitTSOf(id uint64) (ts uint64, ok bool) {
	ts, _, ok = s.resolveStamp(id)
	return ts, ok
}

// resolveStamp resolves a raw creator stamp: committed at ts
// (committed=true), or not committed (committed=false — active, finishing,
// or mid-merge). An id below the settled-stamp mark, or one that is
// neither active, merged, nor in the commit table, is frozen: committed at
// ts 0, visible to everything. final is the id the mergedInto walk ended
// on — the stamp itself, or its nearest not-yet-merged ancestor; when the
// stamp is not committed, final is an active transaction, which is what
// the own-family check in visibleTo must start from (the original creator
// may be a committed subtransaction the active table has already
// forgotten). The caller must hold the page latch
// for the record whose stamp is being resolved (see the package comment
// for why that closes the abort race).
//
// The commit table is consulted BEFORE the active-transaction table, and
// that order is load-bearing. A committer installs its cts entry and
// advances the clock while it is still registered as active (forget comes
// later), so "active" does not imply "uncommitted". The sound implication
// runs the other way: cts entries are installed under tsMu before the
// clock advances past their timestamp, so a cts MISS observed by a
// snapshot at ts S means the transaction's eventual commit timestamp
// exceeds S — whether it is still active or mid-forget. The one gap — the
// transaction leaves the active table between our two checks after
// committing — is closed by re-reading the commit table once.
func (s *Store) resolveStamp(id uint64) (ts uint64, final uint64, committed bool) {
	for {
		if id < s.settledBelow.Load() || id == 0 {
			return 0, id, true // frozen
		}
		s.readLock(&s.tsMu)
		ts, committed := s.cts[id]
		parent, merged := s.mergedInto[id]
		s.tsMu.Unlock()
		if committed {
			return ts, id, true
		}
		if merged {
			// A committed subtransaction rides with its parent; resolve the
			// parent (loops upward until an active ancestor or the root's
			// commit-table entry decides).
			id = parent
			continue
		}
		sh := s.txShard(id)
		s.readLock(&sh.mu)
		_, active := sh.m[id]
		sh.mu.Unlock()
		if active {
			return 0, id, false
		}
		// Not committed, not merged, not active: either frozen above the
		// mark, or it finished between the two checks. One re-read of the
		// commit table decides — an aborted transaction never gains a cts
		// entry, and its page/chain effects were undone under the page
		// latch we hold.
		s.readLock(&s.tsMu)
		ts, committed = s.cts[id]
		parent, merged = s.mergedInto[id]
		s.tsMu.Unlock()
		if committed {
			return ts, id, true
		}
		if merged {
			id = parent
			continue
		}
		return 0, id, true // unknown: frozen
	}
}

// visibleTo reports whether a state created by the raw stamp creator is
// visible to the snapshot: created by the snapshot's own transaction
// family, or committed at or before the snapshot timestamp.
func (s *Store) visibleTo(sn *Snapshot, creator uint64) bool {
	ts, final, committed := s.resolveStamp(creator)
	if committed {
		return ts <= sn.ts
	}
	// The family check starts from final, not creator: a write made by a
	// committed subtransaction carries the sub's stamp, and the active
	// table has already forgotten the sub — only the mergedInto walk in
	// resolveStamp connects it to the live ancestor rootOf can climb from.
	return sn.root != 0 && s.rootOf(final) == sn.root
}

// rootOf walks the active-transaction table to the top-level ancestor of
// id, returning id itself when it is top-level or unknown. Parents cannot
// be forgotten while a child is active, so the walk is stable.
func (s *Store) rootOf(id uint64) uint64 {
	for {
		sh := s.txShard(id)
		s.readLock(&sh.mu)
		t := sh.m[id]
		sh.mu.Unlock()
		if t == nil || t.parent == 0 {
			return id
		}
		id = t.parent
	}
}

// readVersion walks rid's version history — current page state first, then
// the chain — and returns the newest state visible to the snapshot, in
// place: the bytes are valid while the caller holds the page latch.
// exists=false means the visible state is "record absent" (deleted, not
// yet inserted, or nothing visible at all). walked is the chain's length.
// A page with no chains in its bucket skips the chain table.
func (s *Store) readVersion(sn *Snapshot, page *Page, rid RID) (data []byte, exists bool, walked int) {
	var chain []chainEntry
	if s.chainCount(rid.Page).Load() != 0 {
		sh := s.chainShard(rid)
		s.readLock(&sh.mu)
		chain = sh.m[rid].entries
		sh.mu.Unlock()
	}
	walked = len(chain)

	// Current state and its creator.
	var cur []byte
	curExists := page.Live(rid.Slot)
	creator := uint64(0)
	if curExists {
		b, err := page.Read(rid.Slot)
		if err != nil {
			return nil, false, walked
		}
		cur = b
		creator = page.Xmin(rid.Slot)
	} else if len(chain) > 0 {
		creator = chain[len(chain)-1].writer // the deleter
	}
	// else: frozen tombstone — the delete is visible to everyone.

	for i := len(chain) - 1; ; i-- {
		if s.visibleTo(sn, creator) {
			if !curExists {
				return nil, false, walked
			}
			return cur, true, walked
		}
		if i < 0 {
			return nil, false, walked // record did not exist at the snapshot
		}
		cur, curExists, creator = chain[i].data, chain[i].exists, chain[i].xmin
	}
}

// sampleChainLen observes walked, the chain length of the snapshot read
// the read counter numbered n, on one read in chainLenSample: the
// histogram's mean still estimates the mean chain walked per read.
func (s *Store) sampleChainLen(n uint64, walked int) {
	if n%chainLenSample != 0 {
		return
	}
	if h := s.chainLenHist.Load(); h != nil {
		h.Observe(float64(walked))
	}
}

// ReadSnapshot returns a copy of the record at rid as of the snapshot, or
// ErrSlotDeleted when no version is visible (ErrBadSlot when the slot has
// never existed). It takes no lock-manager locks.
func (s *Store) ReadSnapshot(sn *Snapshot, rid RID) ([]byte, error) {
	var out []byte
	err := s.ViewSnapshot(sn, rid, func(data []byte) { out = cloneBytes(data) })
	return out, err
}

// ViewSnapshot is ReadSnapshot without the copy: fn sees the visible
// version in place, under the page latch, and must not retain it.
func (s *Store) ViewSnapshot(sn *Snapshot, rid RID, fn func([]byte)) error {
	page, err := s.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer s.pool.Unpin(rid.Page, false)
	n := s.readSnapshotN.Add(1)
	if rid.Slot >= page.NumSlots() {
		return ErrBadSlot
	}
	data, exists, walked := s.readVersion(sn, page, rid)
	s.sampleChainLen(n, walked)
	if !exists {
		return ErrSlotDeleted
	}
	fn(data)
	return nil
}

// ForEachRecordAt scans every record visible to the snapshot, calling fn
// with each RID and a copy of the visible version. Unlike the latest-state
// scan it visits tombstoned slots too: an older version may still be
// visible to the snapshot.
func (s *Store) ForEachRecordAt(sn *Snapshot, fn func(RID, []byte) error) error {
	if s.closed.Load() {
		return ErrStoreClosed
	}
	return s.forEachPage(sn, fn)
}

// oldestLiveSnapshot scans the registry for the oldest open snapshot.
func (s *Store) oldestLiveSnapshot() (ts uint64, ok bool) {
	for i := range s.snaps {
		sh := &s.snaps[i]
		sh.mu.Lock()
		for t := range sh.m {
			if !ok || t < ts {
				ts, ok = t, true
			}
		}
		sh.mu.Unlock()
	}
	return ts, ok
}

// oldestSnapshot returns the GC horizon: the oldest live snapshot
// timestamp, or the clock value loaded before the registry scan when no
// snapshot is open. Versions whose displacing writer committed at or below
// the horizon can never be needed again — every live and future snapshot
// sees the newer state.
func (s *Store) oldestSnapshot() uint64 {
	// Load the clock before scanning: a snapshot that registers while we
	// scan either lands in a shard we have not visited (we see it) or
	// captured its timestamp after this load (≥ horizon either way).
	horizon := s.commitTS.Load()
	if ts, ok := s.oldestLiveSnapshot(); ok && ts < horizon {
		return ts
	}
	return horizon
}

// pruneChain drops the chain's oldest entries up to the newest whose
// displacing writer committed at or below the horizon: every snapshot sees
// that writer's state or a newer one, so no reader needs what it displaced
// or anything older. Entries are oldest-first with monotone timestamps and
// uncommitted writers only at the tail, so the walk stops at the first
// entry it must keep — its work is what it reclaims plus one. The dropped
// slots are cleared so their data can be collected before the next append
// reallocates. Counts reclaimed entries. Caller holds the chain shard
// mutex.
func (s *Store) pruneChain(chain []chainEntry, horizon uint64) []chainEntry {
	n := 0
	for ; n < len(chain); n++ {
		ts, committed := s.commitTSOf(chain[n].writer)
		if !committed || ts > horizon {
			break
		}
	}
	if n == 0 {
		return chain
	}
	clear(chain[:n])
	s.gcReclaimed.Add(uint64(n))
	return chain[n:]
}

// VersionGC runs one garbage-collection pass: computes the snapshot
// horizon, truncates every version chain to the suffix some live snapshot
// may still need, then settles (settle). Returns the number of version
// entries reclaimed by this pass.
func (s *Store) VersionGC() uint64 {
	if s.closed.Load() {
		return 0
	}
	horizon := s.oldestSnapshot()
	s.gcHorizon.Store(horizon)
	before := s.gcReclaimed.Load()
	for i := range s.chains {
		sh := &s.chains[i]
		sh.mu.Lock()
		for rid, c := range sh.m {
			if c.prunedAt == horizon {
				continue
			}
			if c.entries = s.pruneChain(c.entries, horizon); len(c.entries) == 0 {
				s.dropChainLocked(sh, rid)
			} else {
				c.prunedAt = horizon
				sh.m[rid] = c
			}
		}
		sh.mu.Unlock()
	}
	s.settle(horizon)
	return s.gcReclaimed.Load() - before
}

// settle prunes commit-table entries at or below the horizon (an id
// pruned from the table resolves as frozen — correct, because its
// timestamp is ≤ every live snapshot) and, on a leader, publishes the
// settled-stamp mark: the smallest id still registered, in the commit
// table, or forwarding through mergedInto, else the next id to be drawn.
//
// It holds every transaction shard mutex throughout (tsMu, a leaf, nests
// under them), so the active table cannot change while it looks: no id
// registers, and no committer leaves. The active scan comes first and the
// commit-table scan second; a transaction that commits meanwhile is still
// registered (forget comes after publication), so one scan or the other
// sees it. Entries whose transaction is still registered are kept: a
// committer holds its registration across publication, and pruning inside
// that window would send resolveStamp's cts miss to the active table,
// where the committed writer would wrongly resolve as uncommitted. The
// mark never moves down: ids only grow, and Begin draws again rather than
// register an id below it.
func (s *Store) settle(horizon uint64) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	mark := s.nextTxn.Load() + 1
	for i := range s.shards {
		for id := range s.shards[i].m {
			mark = min(mark, id)
		}
	}
	s.tsMu.Lock()
	for id, ts := range s.cts {
		if _, active := s.txShard(id).m[id]; ts <= horizon && !active {
			delete(s.cts, id)
		} else {
			mark = min(mark, id)
		}
	}
	for id := range s.mergedInto {
		mark = min(mark, id)
	}
	s.tsMu.Unlock()
	if !s.follower.Load() && mark > s.settledBelow.Load() {
		s.settledBelow.Store(mark)
	}
}

// versionGCLoop is the background GC pass, started by Open unless the
// configured interval is negative.
func (s *Store) versionGCLoop() {
	defer close(s.vgcDone)
	for {
		select {
		case <-s.vgcQuit:
			return
		case <-s.vgcTick.C:
			s.VersionGC()
		}
	}
}

// MVCCStats reports the read-path counters: snapshot-path reads,
// locked-path (latest-state) reads, and version entries reclaimed by GC.
func (s *Store) MVCCStats() (snapshotReads, lockedReads, gcReclaimed uint64) {
	return s.readSnapshotN.Load(), s.readLockedN.Load(), s.gcReclaimed.Load()
}

// CommitTS returns the current commit-timestamp clock (tests).
func (s *Store) CommitTS() uint64 { return s.commitTS.Load() }
