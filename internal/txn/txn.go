// Package txn implements the Sentinel transaction manager: top-level
// transactions backed by the storage manager (the Exodus role) plus the
// nested subtransactions the paper adds for rule execution. Each rule's
// condition and action run inside a subtransaction; subtransactions take
// locks from the shared lock manager, inherit them to their parent on
// commit, and roll back their own storage effects on abort.
//
// The manager is also an event source: it signals the system transaction
// events the paper relies on — beginTransaction, preCommitTransaction,
// commitTransaction and abortTransaction — to a registered listener
// (normally the local composite event detector). Deferred coupling mode is
// built entirely from these events via the A* operator rewrite.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Status is the lifecycle state of a transaction.
type Status int

// Transaction states.
const (
	Active Status = iota
	Committed
	Aborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors reported by the transaction manager.
var (
	ErrFinished       = errors.New("txn: transaction already finished")
	ErrActiveChildren = errors.New("txn: subtransactions still active")
	ErrNotNested      = errors.New("txn: operation requires a subtransaction")
	ErrReadOnly       = errors.New("txn: snapshot transaction is read-only")
)

// EventListener receives transaction system events. name is one of the
// event-name constants in the event package; txn is the top-level
// transaction id. Listeners are called synchronously, in the signalling
// goroutine, which is what lets deferred rules run between preCommit and
// the actual commit.
type EventListener func(name string, txnID uint64)

// Manager creates and tracks transactions. Store may be nil, in which case
// transactions are purely logical (locks and events only) — useful for the
// detector's own tests and for the in-memory examples.
type Manager struct {
	store    *storage.Store
	locks    *lockmgr.Manager
	listener atomic.Value // EventListener

	mu   sync.Mutex
	live map[uint64]*Txn
	next uint64 // ids for store-less mode

	// Always-on lifecycle counters; RegisterMetrics exposes them plus the
	// subtransaction-depth histogram (nil until wired, at startup).
	begins     atomic.Uint64
	subBegins  atomic.Uint64
	snapBegins atomic.Uint64
	commits    atomic.Uint64
	subCommits atomic.Uint64
	aborts     atomic.Uint64
	subAborts  atomic.Uint64
	depthHist  *obs.Histogram
}

// RegisterMetrics wires the transaction manager into a metrics registry:
// begin/commit/abort counters split between top-level transactions and
// rule subtransactions, the live-transaction gauge, and the nesting-depth
// distribution of subtransactions.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sentinel_txn_begins_total",
		"Top-level transactions begun.", m.begins.Load)
	r.CounterFunc("sentinel_txn_sub_begins_total",
		"Subtransactions begun (one per triggered non-detached rule).", m.subBegins.Load)
	r.CounterFunc("sentinel_txn_snapshot_begins_total",
		"Read-only snapshot transactions begun.", m.snapBegins.Load)
	r.CounterFunc("sentinel_txn_commits_total",
		"Top-level transactions committed.", m.commits.Load)
	r.CounterFunc("sentinel_txn_sub_commits_total",
		"Subtransactions committed into their parents.", m.subCommits.Load)
	r.CounterFunc("sentinel_txn_aborts_total",
		"Top-level transactions aborted.", m.aborts.Load)
	r.CounterFunc("sentinel_txn_sub_aborts_total",
		"Subtransactions rolled back.", m.subAborts.Load)
	r.GaugeFunc("sentinel_txn_active",
		"Transactions (all nesting levels) currently in flight.",
		func() float64 { return float64(m.Live()) })
	m.depthHist = r.Histogram("sentinel_txn_subtxn_depth",
		"Nesting depth at subtransaction begin (1 = direct child of a top-level transaction).",
		obs.DepthBuckets())
}

// NewManager builds a transaction manager over the given store and lock
// manager. locks must not be nil.
func NewManager(store *storage.Store, locks *lockmgr.Manager) *Manager {
	m := &Manager{store: store, locks: locks, live: make(map[uint64]*Txn)}
	m.listener.Store(EventListener(func(string, uint64) {}))
	return m
}

// SetListener installs the transaction-event listener (the LED hook).
func (m *Manager) SetListener(l EventListener) {
	if l == nil {
		l = func(string, uint64) {}
	}
	m.listener.Store(l)
}

func (m *Manager) emit(name string, txnID uint64) {
	m.listener.Load().(EventListener)(name, txnID)
}

// Locks returns the shared lock manager.
func (m *Manager) Locks() *lockmgr.Manager { return m.locks }

// Txn is one transaction, top-level or nested.
type Txn struct {
	mgr    *Manager
	id     uint64
	parent *Txn
	depth  int

	// readOnly marks a snapshot transaction (BeginSnapshot): it holds snap
	// for its whole life, takes no locks, and rejects writes. On a
	// read-write transaction snap is armed temporarily by UseSnapshot
	// (rule-condition evaluation) and nil otherwise. snap is touched only
	// by the transaction's owning goroutine, like every other operation.
	readOnly bool
	snap     *storage.Snapshot

	mu       sync.Mutex
	status   Status
	children int
	// family, maintained on the root only, lists the ids of the root and
	// every subtransaction ever begun beneath it; the event graph flush
	// at transaction end covers occurrences signalled under any of them.
	family []uint64
	// onFinish callbacks run (newest first) after commit or abort, with
	// the final status; the detector uses them to flush the event graph.
	onFinish []func(Status)
}

// FamilyIDs returns the ids of the root transaction and every
// subtransaction ever created beneath it (including finished ones).
func (t *Txn) FamilyIDs() []uint64 {
	r := t.Root()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.family) == 0 {
		return []uint64{r.id}
	}
	out := make([]uint64, len(r.family))
	copy(out, r.family)
	return out
}

// ID returns the transaction's id. Subtransactions have their own ids.
func (t *Txn) ID() uint64 { return t.id }

// Root returns the top-level ancestor (itself for top-level transactions).
func (t *Txn) Root() *Txn {
	r := t
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// Depth returns the nesting depth (0 for top-level).
func (t *Txn) Depth() int { return t.depth }

// Parent returns the immediate parent transaction, nil for top-level ones.
// Layers that keep per-transaction side state (the object catalog's dirty
// sets, index dirty-key sets) use it to merge a committed subtransaction's
// state into its parent, mirroring the storage-level op merge.
func (t *Txn) Parent() *Txn { return t.parent }

// IsNested reports whether t is a subtransaction.
func (t *Txn) IsNested() bool { return t.parent != nil }

// Status returns the transaction's current state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// OnFinish registers f to run when the transaction commits or aborts.
func (t *Txn) OnFinish(f func(Status)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onFinish = append(t.onFinish, f)
}

// Begin starts a top-level transaction and signals beginTransaction.
func (m *Manager) Begin() (*Txn, error) {
	var id uint64
	if m.store != nil {
		sid, err := m.store.Begin()
		if err != nil {
			return nil, err
		}
		id = sid
	} else {
		m.mu.Lock()
		m.next++
		id = m.next | 1<<63 // keep store-less ids out of the store's space
		m.mu.Unlock()
	}
	t := &Txn{mgr: m, id: id, status: Active}
	t.family = []uint64{id}
	m.mu.Lock()
	m.live[id] = t
	m.mu.Unlock()
	m.begins.Add(1)
	m.emit("beginTransaction", id)
	return t, nil
}

// BeginSnapshot starts a read-only snapshot transaction: it captures the
// store's commit-timestamp clock with one atomic load and reads a frozen,
// prefix-consistent committed state through the MVCC version chains. It
// writes no log record, signals no transaction events, and — crucially —
// never touches the lock manager, so it cannot block writers or be blocked
// by them. Write operations return ErrReadOnly.
func (m *Manager) BeginSnapshot() (*Txn, error) {
	m.mu.Lock()
	m.next++
	id := m.next | 1<<63 // logical-id space: the store never sees this txn
	m.mu.Unlock()
	t := &Txn{mgr: m, id: id, status: Active, readOnly: true}
	if m.store != nil {
		t.snap = m.store.Snapshot()
	}
	t.family = []uint64{id}
	m.mu.Lock()
	m.live[id] = t
	m.mu.Unlock()
	m.snapBegins.Add(1)
	return t, nil
}

// ReadOnly reports whether t is a snapshot transaction.
func (t *Txn) ReadOnly() bool { return t.readOnly }

// Snapshot returns the storage snapshot the transaction is reading
// through: always set for snapshot transactions (when a store is
// configured), set on a read-write transaction only while UseSnapshot has
// it armed, nil otherwise.
func (t *Txn) Snapshot() *storage.Snapshot { return t.snap }

// UseSnapshot arms a fresh snapshot on a read-write transaction for the
// scope between the call and release: reads route through the MVCC path —
// committed state as of now plus the transaction family's own uncommitted
// writes — and lock requests are counted as bypassed instead of taken.
// Rule-condition evaluation uses this to drop the Shared-lock round trip
// per firing. On a snapshot transaction (or without a store) it is a
// no-op. Not reentrant: release before arming again.
func (t *Txn) UseSnapshot() (release func(), err error) {
	if t.mgr.store == nil || t.readOnly || t.snap != nil {
		return func() {}, nil
	}
	sn := t.mgr.store.SnapshotFor(t.Root().ID())
	t.snap = sn
	return func() {
		t.snap = nil
		sn.Close()
	}, nil
}

// BeginSub starts a subtransaction of t. Rule executions are packaged in
// subtransactions, one per triggered rule.
func (t *Txn) BeginSub() (*Txn, error) {
	if t.readOnly {
		return nil, ErrReadOnly
	}
	t.mu.Lock()
	if t.status != Active {
		t.mu.Unlock()
		return nil, ErrFinished
	}
	t.children++
	t.mu.Unlock()

	m := t.mgr
	var id uint64
	if m.store != nil {
		sid, err := m.store.BeginSub(t.id)
		if err != nil {
			t.childDone()
			return nil, err
		}
		id = sid
	} else {
		m.mu.Lock()
		m.next++
		id = m.next | 1<<63
		m.mu.Unlock()
	}
	sub := &Txn{mgr: m, id: id, parent: t, depth: t.depth + 1, status: Active}
	root := t.Root()
	root.mu.Lock()
	root.family = append(root.family, id)
	root.mu.Unlock()
	m.locks.SetParent(lockmgr.TxnID(id), lockmgr.TxnID(t.id))
	m.mu.Lock()
	m.live[id] = sub
	m.mu.Unlock()
	m.subBegins.Add(1)
	if h := m.depthHist; h != nil {
		h.Observe(float64(sub.depth))
	}
	return sub, nil
}

func (t *Txn) childDone() {
	t.mu.Lock()
	t.children--
	t.mu.Unlock()
}

// Lock acquires a lock on behalf of this transaction. With a snapshot
// armed (a snapshot transaction, or UseSnapshot's scope) the request is a
// counted no-op: version visibility replaces the lock.
func (t *Txn) Lock(resource string, mode lockmgr.Mode) error {
	if t.bypassLocks() {
		return nil
	}
	return t.mgr.locks.Lock(lockmgr.TxnID(t.id), resource, mode)
}

// LockOf is Lock on the resource name(key), for names that cost an
// allocation to build: name runs only when the request reaches the lock
// manager, so a snapshot read pays nothing for it.
func (t *Txn) LockOf(name func(uint64) string, key uint64, mode lockmgr.Mode) error {
	if t.bypassLocks() {
		return nil
	}
	return t.mgr.locks.Lock(lockmgr.TxnID(t.id), name(key), mode)
}

// bypassLocks reports, and counts, a lock request a snapshot satisfies.
func (t *Txn) bypassLocks() bool {
	if t.readOnly || t.snap != nil {
		t.mgr.locks.NoteBypass()
		return true
	}
	return false
}

// Insert stores a record under this transaction.
func (t *Txn) Insert(data []byte) (storage.RID, error) {
	if t.readOnly || t.snap != nil {
		return storage.RID{}, ErrReadOnly
	}
	if t.mgr.store == nil {
		return storage.RID{}, errors.New("txn: no store configured")
	}
	return t.mgr.store.Insert(t.id, data)
}

// Read returns the record at rid: through the armed snapshot when one is
// set (lock-free, version-resolved), otherwise the latest state under the
// caller's 2PL locks.
func (t *Txn) Read(rid storage.RID) ([]byte, error) {
	if t.mgr.store == nil {
		return nil, errors.New("txn: no store configured")
	}
	if sn := t.snap; sn != nil {
		return t.mgr.store.ReadSnapshot(sn, rid)
	}
	return t.mgr.store.Read(rid)
}

// View is Read without the copy: fn sees the record in place, under the
// page latch, and must not retain it.
func (t *Txn) View(rid storage.RID, fn func([]byte)) error {
	if t.mgr.store == nil {
		return errors.New("txn: no store configured")
	}
	if sn := t.snap; sn != nil {
		return t.mgr.store.ViewSnapshot(sn, rid, fn)
	}
	return t.mgr.store.View(rid, fn)
}

// Update replaces the record at rid, returning its possibly-new RID.
func (t *Txn) Update(rid storage.RID, data []byte) (storage.RID, error) {
	if t.readOnly || t.snap != nil {
		return storage.RID{}, ErrReadOnly
	}
	if t.mgr.store == nil {
		return storage.RID{}, errors.New("txn: no store configured")
	}
	return t.mgr.store.Update(t.id, rid, data)
}

// Delete removes the record at rid.
func (t *Txn) Delete(rid storage.RID) error {
	if t.readOnly || t.snap != nil {
		return ErrReadOnly
	}
	if t.mgr.store == nil {
		return errors.New("txn: no store configured")
	}
	return t.mgr.store.Delete(t.id, rid)
}

// Commit finishes the transaction. For a top-level transaction the
// preCommitTransaction event is signalled first — this is the hook that
// makes deferred rules run "just before commit" — and the commit proceeds
// only afterwards. For a subtransaction the locks are inherited by the
// parent and the storage effects merge into it.
func (t *Txn) Commit() error {
	if t.readOnly {
		return t.finishReadOnly(Committed)
	}
	t.mu.Lock()
	if t.status != Active {
		t.mu.Unlock()
		return ErrFinished
	}
	t.mu.Unlock()

	m := t.mgr
	if t.parent == nil {
		// The preCommit signal may trigger deferred rules, which create
		// subtransactions; they must all be finished by the time the
		// listener returns.
		m.emit("preCommitTransaction", t.id)
	}

	t.mu.Lock()
	if t.children > 0 {
		t.mu.Unlock()
		return fmt.Errorf("%w: txn %d", ErrActiveChildren, t.id)
	}
	t.status = Committed
	finishers := t.takeFinishersLocked()
	t.mu.Unlock()

	if m.store != nil {
		if err := m.store.Commit(t.id); err != nil {
			t.mu.Lock()
			t.status = Active
			t.mu.Unlock()
			return err
		}
	}
	if t.parent != nil {
		m.locks.Inherit(lockmgr.TxnID(t.id), lockmgr.TxnID(t.parent.id))
		t.parent.childDone()
		m.subCommits.Add(1)
	} else {
		m.locks.ReleaseAll(lockmgr.TxnID(t.id))
		m.commits.Add(1)
		m.emit("commitTransaction", t.id)
	}
	m.forget(t.id)
	runFinishers(finishers, Committed)
	return nil
}

// Abort rolls the transaction back: its storage effects are undone, its
// locks released, and (for top-level transactions) abortTransaction is
// signalled so the event graph can be flushed.
func (t *Txn) Abort() error {
	if t.readOnly {
		return t.finishReadOnly(Aborted)
	}
	t.mu.Lock()
	if t.status != Active {
		t.mu.Unlock()
		return ErrFinished
	}
	if t.children > 0 {
		t.mu.Unlock()
		return fmt.Errorf("%w: txn %d", ErrActiveChildren, t.id)
	}
	t.status = Aborted
	finishers := t.takeFinishersLocked()
	t.mu.Unlock()

	m := t.mgr
	var storeErr error
	if m.store != nil {
		// A failed storage rollback must not leak locks: the transaction
		// is finished for every caller (status is already Aborted), so
		// keeping its locks would wedge every waiter forever. The log has
		// no abort record yet, so recovery completes the rollback on the
		// next open; here the error is reported after the lock state and
		// manager bookkeeping are cleaned up.
		storeErr = m.store.Abort(t.id)
	}
	m.locks.ReleaseAll(lockmgr.TxnID(t.id))
	if t.parent != nil {
		t.parent.childDone()
		m.subAborts.Add(1)
	} else {
		m.aborts.Add(1)
		m.emit("abortTransaction", t.id)
	}
	m.forget(t.id)
	runFinishers(finishers, Aborted)
	return storeErr
}

// finishReadOnly ends a snapshot transaction: close the snapshot (its
// versions become reclaimable), run finishers, forget. There is nothing to
// make durable, no locks to release, and no events to signal — commit and
// abort differ only in the status handed to the finishers.
func (t *Txn) finishReadOnly(st Status) error {
	t.mu.Lock()
	if t.status != Active {
		t.mu.Unlock()
		return ErrFinished
	}
	t.status = st
	finishers := t.takeFinishersLocked()
	t.mu.Unlock()
	if t.snap != nil {
		t.snap.Close()
	}
	t.mgr.forget(t.id)
	runFinishers(finishers, st)
	return nil
}

func (t *Txn) takeFinishersLocked() []func(Status) {
	f := t.onFinish
	t.onFinish = nil
	return f
}

func runFinishers(fs []func(Status), st Status) {
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i](st)
	}
}

func (m *Manager) forget(id uint64) {
	m.mu.Lock()
	delete(m.live, id)
	m.mu.Unlock()
}

// Lookup returns the live transaction with the given id, or nil.
func (m *Manager) Lookup(id uint64) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live[id]
}

// FamilyIDs returns the FamilyIDs of the live transaction id, nil when id
// names no live transaction.
func (m *Manager) FamilyIDs(id uint64) []uint64 {
	if t := m.Lookup(id); t != nil {
		return t.FamilyIDs()
	}
	return nil
}

// FamilyOf returns the id of the top-level ancestor of transaction id — the
// family whose scheduling point runs the rules id triggers — or zero when
// id names no live transaction or its family is no longer active (the
// commit and abort events of a finishing transaction).
func (m *Manager) FamilyOf(id uint64) uint64 {
	t := m.Lookup(id)
	if t == nil {
		return 0
	}
	r := t.Root()
	if r.Status() != Active {
		return 0
	}
	return r.id
}

// Live returns the number of unfinished transactions (tests).
func (m *Manager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live)
}
