// Package lockmgr implements the lock manager the Sentinel nested
// transaction manager uses for rule subtransactions — the paper's "lock
// table + nested transactions" kernel extension. It provides shared,
// exclusive and intent-exclusive locks with Moss-style nested-transaction
// semantics: a
// subtransaction may acquire a lock whose only conflicting holders are its
// ancestors, and on commit a subtransaction's locks are inherited by its
// parent rather than released. Deadlocks are detected with a waits-for
// graph and broken by aborting the requester that would close the cycle.
package lockmgr

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	// Shared allows concurrent readers.
	Shared Mode = iota
	// Exclusive allows a single writer.
	Exclusive
	// IntentExclusive is taken on a container (a class) by a transaction
	// that locks members of it exclusive: intent holders do not conflict
	// with each other, but do with Shared and Exclusive holders of the
	// container, who read or change it as a whole.
	IntentExclusive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	case IntentExclusive:
		return "IX"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// compatible reports whether two modes can be held simultaneously by
// unrelated transactions.
func compatible(a, b Mode) bool { return a == b && a != Exclusive }

// join returns the weakest mode that grants both a and b. Shared and
// IntentExclusive are incomparable, and the only mode covering both is
// Exclusive: their combination (SIX) conflicts with every mode here.
func join(a, b Mode) Mode {
	if a == b {
		return a
	}
	return Exclusive
}

// Errors reported by the lock manager.
var (
	ErrDeadlock = errors.New("lockmgr: deadlock detected, request aborted")
	ErrTimeout  = errors.New("lockmgr: lock wait timed out")
	ErrNotHeld  = errors.New("lockmgr: lock not held by owner")
)

// TxnID identifies a (sub)transaction to the lock manager.
type TxnID uint64

// waiter is one blocked lock request.
type waiter struct {
	owner   TxnID
	mode    Mode
	granted chan struct{} // closed when the lock is granted
	dead    bool          // chosen as deadlock victim
}

// resourceLock is the per-resource lock state.
type resourceLock struct {
	name    string
	holders map[TxnID]Mode
	queue   []*waiter
}

// Manager is the lock manager. The zero value is not usable; call New.
type Manager struct {
	mu        sync.Mutex
	resources map[string]*resourceLock
	// held lists, per owner, the resources it holds: exactly those whose
	// holders map has the owner as a key. Inherit and ReleaseAll walk it
	// instead of the whole table, so a transaction end costs what the
	// transaction locked — nothing for a rule subtransaction that locked
	// nothing — however many locks other transactions hold.
	held     map[TxnID][]*resourceLock
	parent   map[TxnID]TxnID // nested-transaction ancestry
	waitsFor map[TxnID]map[TxnID]bool

	// DefaultTimeout bounds lock waits when the per-call timeout is zero.
	// Zero means wait forever (deadlock detection still applies).
	DefaultTimeout time.Duration

	// Always-on outcome counters; waitHist is nil until RegisterMetrics
	// wires it (at startup, before the manager is shared).
	grants    atomic.Uint64 // granted without queueing
	waits     atomic.Uint64 // requests that had to queue
	deadlocks atomic.Uint64 // requests aborted to break a cycle
	timeouts  atomic.Uint64 // requests abandoned after the wait bound
	bypasses  atomic.Uint64 // requests skipped by the MVCC snapshot read path
	waitHist  *obs.Histogram
}

// NoteBypass counts a lock request that the snapshot read path satisfied
// without touching the lock table at all.
func (m *Manager) NoteBypass() { m.bypasses.Add(1) }

// Stats returns the request-outcome counters: immediate grants, queued
// waits, deadlock aborts, timeout abandons, and snapshot-path bypasses.
func (m *Manager) Stats() (grants, waits, deadlocks, timeouts, bypasses uint64) {
	return m.grants.Load(), m.waits.Load(), m.deadlocks.Load(),
		m.timeouts.Load(), m.bypasses.Load()
}

// RegisterMetrics wires the lock manager into a metrics registry: request
// outcome counters, a gauge of resources with live lock state, and the
// distribution of time blocked requests spent queued before being granted.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sentinel_lock_grants_total",
		"Lock requests granted immediately (no queueing).", m.grants.Load)
	r.CounterFunc("sentinel_lock_waits_total",
		"Lock requests that blocked behind a conflicting holder.", m.waits.Load)
	r.CounterFunc("sentinel_lock_deadlocks_total",
		"Lock requests aborted to break a waits-for cycle.", m.deadlocks.Load)
	r.CounterFunc("sentinel_lock_timeouts_total",
		"Lock waits abandoned after the timeout bound.", m.timeouts.Load)
	r.CounterFunc("sentinel_lock_bypasses_total",
		"Lock requests skipped entirely by the MVCC snapshot read path.", m.bypasses.Load)
	r.GaugeFunc("sentinel_lock_resources",
		"Resources with live lock state (holders or waiters).",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.resources))
		})
	m.waitHist = r.Histogram("sentinel_lock_wait_seconds",
		"Time blocked lock requests spent queued before being granted.",
		obs.DurationBuckets())
}

// New creates an empty lock manager.
func New() *Manager {
	return &Manager{
		resources: make(map[string]*resourceLock),
		held:      make(map[TxnID][]*resourceLock),
		parent:    make(map[TxnID]TxnID),
		waitsFor:  make(map[TxnID]map[TxnID]bool),
	}
}

// SetParent registers child as a subtransaction of parent, enabling the
// ancestor rule for lock compatibility and lock inheritance on commit.
func (m *Manager) SetParent(child, parent TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.parent[child] = parent
}

// Forget removes a finished transaction from the ancestry table.
func (m *Manager) Forget(txn TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.parent, txn)
}

// isAncestor reports whether a is an ancestor of (or equal to) d.
// Callers hold m.mu.
func (m *Manager) isAncestor(a, d TxnID) bool {
	for {
		if a == d {
			return true
		}
		p, ok := m.parent[d]
		if !ok {
			return false
		}
		d = p
	}
}

// Lock acquires resource in the given mode for owner, blocking until the
// lock is granted, the wait times out, or the request would deadlock.
// A re-request by a current holder upgrades the mode when necessary.
func (m *Manager) Lock(owner TxnID, resource string, mode Mode) error {
	return m.LockTimeout(owner, resource, mode, m.DefaultTimeout)
}

// LockTimeout is Lock with an explicit wait bound (zero = no bound).
func (m *Manager) LockTimeout(owner TxnID, resource string, mode Mode, timeout time.Duration) error {
	// Fault hook: a Delay verdict stalls the requester before it touches the
	// lock table (widening race windows); an Err verdict fails the request as
	// if it had been chosen a deadlock victim (tests arm Fault.Err =
	// ErrDeadlock or ErrTimeout so errors.Is classification holds).
	if err := faults.Check(faults.LockAcquire); err != nil {
		return fmt.Errorf("lockmgr: injected fault (txn %d on %q): %w", owner, resource, err)
	}
	m.mu.Lock()
	rl := m.resources[resource]
	if rl == nil {
		rl = &resourceLock{name: resource, holders: make(map[TxnID]Mode)}
		m.resources[resource] = rl
	}
	if cur, ok := rl.holders[owner]; ok {
		mode = join(cur, mode) // an upgrade asks for what it will hold
	}
	if m.grantableLocked(rl, owner, mode) {
		m.grantLocked(rl, owner, mode)
		m.mu.Unlock()
		m.grants.Add(1)
		return nil
	}
	w := &waiter{owner: owner, mode: mode, granted: make(chan struct{})}
	rl.queue = append(rl.queue, w)
	m.addWaitEdgesLocked(rl, w)
	if m.cycleLocked(owner) {
		m.removeWaiterLocked(rl, w)
		m.mu.Unlock()
		m.deadlocks.Add(1)
		return fmt.Errorf("%w (txn %d on %q)", ErrDeadlock, owner, resource)
	}
	m.mu.Unlock()
	m.waits.Add(1)
	var queuedAt time.Time
	if m.waitHist != nil {
		queuedAt = time.Now()
	}

	var timeoutCh <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case <-w.granted:
		if w.dead {
			m.deadlocks.Add(1)
			return fmt.Errorf("%w (txn %d on %q)", ErrDeadlock, owner, resource)
		}
		if h := m.waitHist; h != nil {
			h.ObserveDuration(time.Since(queuedAt))
		}
		return nil
	case <-timeoutCh:
		m.mu.Lock()
		select {
		case <-w.granted:
			// Granted while we were timing out; keep the lock.
			m.mu.Unlock()
			if w.dead {
				m.deadlocks.Add(1)
				return fmt.Errorf("%w (txn %d on %q)", ErrDeadlock, owner, resource)
			}
			if h := m.waitHist; h != nil {
				h.ObserveDuration(time.Since(queuedAt))
			}
			return nil
		default:
		}
		m.removeWaiterLocked(rl, w)
		m.mu.Unlock()
		m.timeouts.Add(1)
		return fmt.Errorf("%w (txn %d on %q)", ErrTimeout, owner, resource)
	}
}

// grantableLocked reports whether owner may take resource in mode right
// now: every conflicting holder must be the owner itself or an ancestor of
// it (Moss's rule). For fairness, newcomers queue behind earlier waiters —
// EXCEPT when a conflicting holder is an ancestor of the requester: the
// ancestor cannot release the lock while it waits for this descendant to
// finish, so making the descendant queue behind strangers (who in turn
// wait for the ancestor) would deadlock the whole family. Such requests
// bypass the queue, exactly as a holder's own upgrade does.
func (m *Manager) grantableLocked(rl *resourceLock, owner TxnID, mode Mode) bool {
	_, isHolder := rl.holders[owner]
	ancestorHolds := false
	for h, hm := range rl.holders {
		if h == owner {
			continue
		}
		if compatible(hm, mode) {
			continue
		}
		if !m.isAncestor(h, owner) {
			return false
		}
		ancestorHolds = true
	}
	if len(rl.queue) > 0 && !isHolder && !ancestorHolds {
		return false // FIFO fairness for unrelated newcomers
	}
	return true
}

// grantLocked records the grant, keeping per owner the join of its modes.
func (m *Manager) grantLocked(rl *resourceLock, owner TxnID, mode Mode) {
	m.holdLocked(rl, owner, mode)
	delete(m.waitsFor, owner)
}

// holdLocked makes owner a holder of rl in at least the given mode,
// listing rl under the owner the first time.
func (m *Manager) holdLocked(rl *resourceLock, owner TxnID, mode Mode) {
	cur, ok := rl.holders[owner]
	if !ok {
		m.held[owner] = append(m.held[owner], rl)
		rl.holders[owner] = mode
		return
	}
	rl.holders[owner] = join(cur, mode)
}

// dropLocked ends owner's hold on rl: waiters the hold blocked are
// promoted, wait-for edges to the departed owner pruned, and an idle
// resource collected. The caller takes rl off the owner's held list.
func (m *Manager) dropLocked(rl *resourceLock, owner TxnID) {
	delete(rl.holders, owner)
	m.promoteLocked(rl)
	m.pruneWaitEdgesLocked(rl, owner)
	m.gcLocked(rl)
}

// addWaitEdgesLocked records that w waits for the current conflicting
// holders of rl.
func (m *Manager) addWaitEdgesLocked(rl *resourceLock, w *waiter) {
	edges := m.waitsFor[w.owner]
	if edges == nil {
		edges = make(map[TxnID]bool)
		m.waitsFor[w.owner] = edges
	}
	for h, hm := range rl.holders {
		if h == w.owner || compatible(hm, w.mode) || m.isAncestor(h, w.owner) {
			continue
		}
		edges[h] = true
	}
	// Also wait for earlier queued requests that conflict — an ancestor's
	// never does: once granted it is no obstacle to its descendant.
	for _, q := range rl.queue {
		if q == w {
			break
		}
		if q.owner != w.owner && !compatible(q.mode, w.mode) && !m.isAncestor(q.owner, w.owner) {
			edges[q.owner] = true
		}
	}
}

// cycleLocked reports whether start can reach itself in the waits-for
// graph. Besides the lock-wait edges, every transaction waits for its live
// subtransactions: it can neither commit nor abort before they finish. So a
// rule subtransaction of one family blocked on a lock of another family,
// whose own rule is blocked on a lock of the first, closes a cycle through
// the two top-level transactions — one no lock-wait edge alone would show.
// The child edges are found by a scan of the ancestry table, which holds
// live subtransactions only; cycle checks run only when a request queues.
func (m *Manager) cycleLocked(start TxnID) bool {
	seen := map[TxnID]bool{}
	var dfs func(TxnID) bool
	visit := func(next TxnID) bool {
		if next == start {
			return true
		}
		if !seen[next] {
			seen[next] = true
			return dfs(next)
		}
		return false
	}
	dfs = func(n TxnID) bool {
		for next := range m.waitsFor[n] {
			if visit(next) {
				return true
			}
		}
		for child, p := range m.parent {
			if p == n && visit(child) {
				return true
			}
		}
		return false
	}
	return dfs(start)
}

// pruneWaitEdgesLocked drops stale wait-for edges to departed from every
// request still queued on rl. A transaction blocks on one resource at a
// time, so all of a queued waiter's edges refer to rl's holders and its
// earlier queue entries; once departed neither holds rl nor sits in the
// queue ahead, an edge to it is dead — left in place it surfaces as a
// phantom deadlock when departed later queues behind that same waiter.
func (m *Manager) pruneWaitEdgesLocked(rl *resourceLock, departed TxnID) {
	if _, stillHolds := rl.holders[departed]; stillHolds {
		return
	}
	for _, q := range rl.queue {
		if q.owner == departed {
			return // still queued: later entries' edges remain live
		}
		delete(m.waitsFor[q.owner], departed)
	}
}

func (m *Manager) removeWaiterLocked(rl *resourceLock, w *waiter) {
	for i, q := range rl.queue {
		if q == w {
			rl.queue = append(rl.queue[:i], rl.queue[i+1:]...)
			break
		}
	}
	delete(m.waitsFor, w.owner)
	m.promoteLocked(rl)
	m.pruneWaitEdgesLocked(rl, w.owner)
}

// promoteLocked grants as many queued requests as compatibility allows,
// front to back.
func (m *Manager) promoteLocked(rl *resourceLock) {
	for len(rl.queue) > 0 {
		w := rl.queue[0]
		ok := true
		for h, hm := range rl.holders {
			if h == w.owner || compatible(hm, w.mode) || m.isAncestor(h, w.owner) {
				continue
			}
			ok = false
			break
		}
		if !ok {
			return
		}
		rl.queue = rl.queue[1:]
		m.grantLocked(rl, w.owner, w.mode)
		close(w.granted)
	}
}

// Unlock releases owner's lock on resource.
func (m *Manager) Unlock(owner TxnID, resource string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rl := m.resources[resource]
	if rl == nil {
		return fmt.Errorf("%w: %q", ErrNotHeld, resource)
	}
	if _, ok := rl.holders[owner]; !ok {
		return fmt.Errorf("%w: %q", ErrNotHeld, resource)
	}
	list := m.held[owner]
	i := slices.Index(list, rl) // listed: owner is in rl.holders
	if list = slices.Delete(list, i, i+1); len(list) == 0 {
		delete(m.held, owner)
	} else {
		m.held[owner] = list
	}
	m.dropLocked(rl, owner)
	return nil
}

// ReleaseAll releases every lock owner holds (transaction end).
func (m *Manager) ReleaseAll(owner TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	list := m.held[owner]
	delete(m.held, owner)
	for _, rl := range list {
		m.dropLocked(rl, owner)
	}
	delete(m.parent, owner)
}

// Inherit transfers every lock of child to parent (nested-transaction
// commit), joining the modes when the parent already holds one.
func (m *Manager) Inherit(child, parent TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	list := m.held[child]
	delete(m.held, child)
	for _, rl := range list {
		mode := rl.holders[child]
		delete(rl.holders, child)
		m.holdLocked(rl, parent, mode)
		m.promoteLocked(rl)
		// Whoever still queues behind the transferred hold now waits
		// for the parent, not the departed child.
		for _, q := range rl.queue {
			edges := m.waitsFor[q.owner]
			if edges == nil || !edges[child] {
				continue
			}
			delete(edges, child)
			if hm := rl.holders[parent]; !compatible(hm, q.mode) && !m.isAncestor(parent, q.owner) {
				edges[parent] = true
			}
		}
	}
	delete(m.parent, child)
}

func (m *Manager) gcLocked(rl *resourceLock) {
	if len(rl.holders) == 0 && len(rl.queue) == 0 {
		delete(m.resources, rl.name)
	}
}

// Holders returns the transactions currently holding resource (tests and
// the rule debugger).
func (m *Manager) Holders(resource string) map[TxnID]Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	rl := m.resources[resource]
	out := make(map[TxnID]Mode, 4)
	if rl != nil {
		for h, mode := range rl.holders {
			out[h] = mode
		}
	}
	return out
}

// Waiting returns how many requests are queued on resource (tests).
func (m *Manager) Waiting(resource string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rl := m.resources[resource]; rl != nil {
		return len(rl.queue)
	}
	return 0
}
