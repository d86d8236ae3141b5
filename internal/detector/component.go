package detector

import (
	"container/heap"
	"sync"
	"sync/atomic"

	"repro/internal/event"
)

// This file implements the component sharding of the event graph: the
// graph is partitioned into its connected components (disjoint operator
// trees), and each component carries its own mutex, occurrence stores,
// per-transaction dirty set, timer heap, and stats shard. Signals into
// independent expressions then propagate concurrently on separate cores,
// while ordering within any shared subexpression stays serialized — the
// paper's constraint that operator state machines consume occurrences in
// logical-clock order only binds nodes reachable from one another, and
// reachability never crosses a component boundary by construction.
//
// Components are tracked with a union-find structure: every node is
// created in a fresh component, and defining an operator that joins
// operands from different components merges them (the loser's parent
// pointer is set to the winner, and the loser's mutable state — dirty
// sets, timers — moves into the winner). Merges only happen under the
// detector's structure lock with every involved component locked, so a
// thread holding a component's lock can trust find() to be stable.
//
// Lock hierarchy (outer to inner):
//
//	d.structMu → component.mu (ascending id when several) → d.compsMu
//
// The structure lock serializes everything that changes the shape of the
// graph (definitions, merges, subscriptions, class declarations) and the
// serialized signal entry; component locks serialize propagation within one
// expression tree; compsMu is a leaf protecting the component registry and
// the transaction→components fan-out map.

// component is one connected component of the event graph.
type component struct {
	id     uint64
	parent atomic.Pointer[component] // nil while this component is a root
	mu     sync.Mutex

	// Per-component shard of the transaction dirty tracking: for each
	// transaction, the nodes of this component that were handed one of its
	// occurrences and may store it. A node is appended when its dirtyTxn
	// stamp names another transaction, so under interleaved transactions a
	// list can name a node twice — harmless, flushTxn is idempotent.
	// spare recycles a flushed list's backing array. Guarded by mu.
	dirty         map[uint64][]Node
	dirtyOverflow bool
	spare         []Node

	// Per-component timer heap for the temporal operators. Guarded by mu.
	timers   timerHeap
	timerTxn map[*timerEntry]timerOwner

	// Per-component stats shard; StatsSnapshot sums the shards. A retired
	// (merged-away) component keeps its counters frozen, so the sum over
	// the full registry stays monotonic.
	stats statCounters
}

// find returns the root of the component's union-find tree, halving the
// path as it walks. It is safe without locks: parent only ever transitions
// nil → winner (under the structure lock with both components locked) and
// never changes again, so every pointer read leads to the current root.
// Callers that need the root to *stay* the root must hold either the
// structure lock or the root's mutex — a merge needs both.
func (c *component) find() *component {
	for {
		p := c.parent.Load()
		if p == nil {
			return c
		}
		if gp := p.parent.Load(); gp != nil {
			c.parent.Store(gp) // path halving; racy but monotone-safe
			c = gp
			continue
		}
		return p
	}
}

// newComponent allocates a fresh root component and registers it.
func (d *Detector) newComponent() *component {
	c := &component{
		id:       d.compID.Add(1),
		dirty:    make(map[uint64][]Node),
		timerTxn: make(map[*timerEntry]timerOwner),
	}
	d.compsMu.Lock()
	d.comps = append(d.comps, c)
	d.compsMu.Unlock()
	return c
}

// rootComps snapshots the current root components, ascending by id.
// Callers hold the structure lock, so membership cannot change under them.
func (d *Detector) rootComps() []*component {
	d.compsMu.Lock()
	all := d.comps
	d.compsMu.Unlock()
	roots := make([]*component, 0, len(all))
	for _, c := range all {
		if c.parent.Load() == nil {
			roots = append(roots, c)
		}
	}
	return roots
}

// mergeNodeComps unions the components of the given nodes and returns the
// surviving root. Callers hold the structure lock. The winner is the root
// with the smallest id; every loser's mutable state moves into it while
// both are locked, so concurrent fast-path signallers — who validate the
// admission index after locking — can never observe a half-merged shard.
func (d *Detector) mergeNodeComps(nodes []Node) *component {
	roots := make([]*component, 0, len(nodes))
	for _, n := range nodes {
		r := n.component()
		dup := false
		for _, have := range roots {
			if have == r {
				dup = true
				break
			}
		}
		if !dup {
			roots = append(roots, r)
		}
	}
	if len(roots) == 1 {
		return roots[0]
	}
	sortComps(roots)
	for _, r := range roots {
		r.mu.Lock()
	}
	winner := roots[0]
	for _, loser := range roots[1:] {
		winner.absorb(loser)
		loser.parent.Store(winner)
	}
	for i := len(roots) - 1; i >= 0; i-- {
		roots[i].mu.Unlock()
	}
	return winner
}

// absorb moves loser's mutable per-component state into the winner; both
// components are locked and the structure lock is held. Stats shards are
// deliberately left behind: a retired component's counters stay frozen and
// keep contributing to the snapshot sum.
func (c *component) absorb(loser *component) {
	for txn, list := range loser.dirty {
		c.dirty[txn] = append(c.dirty[txn], list...)
	}
	loser.dirty = nil
	if loser.dirtyOverflow {
		c.dirtyOverflow = true
	}
	if len(loser.timers) > 0 {
		c.timers = append(c.timers, loser.timers...)
		heap.Init(&c.timers)
		loser.timers = nil
	}
	for e, o := range loser.timerTxn {
		c.timerTxn[e] = o
	}
	loser.timerTxn = nil
}

// maxTrackedTxns bounds each component's dirty map and each of its lists
// (and the detector's transaction fan-out map) for workloads that never
// flush; past it, per-txn tracking degrades to full-graph sweeps until
// FlushAll resets.
const maxTrackedTxns = 1 << 16

// markDirty records that node n (whose bookkeeping is core) is about to
// receive (and may store) occ, under every transaction occ carries — a
// composite is flushed when any constituent's transaction finishes.
// Callers hold c.mu (c is a root).
func (c *component) markDirty(d *Detector, n Node, core *nodeCore, occ *event.Occurrence) {
	if len(occ.Constituents) == 0 {
		c.markDirtyTxn(d, n, core, occ.Txn)
		return
	}
	for _, sub := range occ.Constituents {
		c.markDirty(d, n, core, sub)
	}
}

// markDirtyTxn is the single-transaction form of markDirty. On the first
// touch of a (transaction, component) pair it registers the component in
// the detector's fan-out map, so a commit/abort flush visits only the
// components the transaction reached. Callers hold c.mu.
func (c *component) markDirtyTxn(d *Detector, n Node, core *nodeCore, txnID uint64) {
	if core.dirtyTxn == txnID+1 || c.dirtyOverflow {
		return
	}
	list, tracked := c.dirty[txnID]
	if !tracked {
		if len(c.dirty) >= maxTrackedTxns {
			c.overflowDirty(d)
			return
		}
		list, c.spare = c.spare, nil
		d.registerTxnComp(txnID, c)
	} else if len(list) >= maxTrackedTxns {
		c.overflowDirty(d)
		return
	}
	core.dirtyTxn = txnID + 1
	c.dirty[txnID] = append(list, n)
}

// overflowDirty gives up per-transaction tracking on this component. The
// stamps left on its nodes are reset by the sweeps that replace it.
func (c *component) overflowDirty(d *Detector) {
	c.dirtyOverflow = true
	c.dirty = make(map[uint64][]Node)
	d.flushSweep.Store(true)
}

// flushTxnLocked flushes one transaction's occurrences from this
// component using its dirty list and reports how many nodes it visited.
// Callers hold c.mu.
func (c *component) flushTxnLocked(txnID uint64) int {
	list, ok := c.dirty[txnID]
	if !ok {
		return 0
	}
	delete(c.dirty, txnID)
	for i, n := range list {
		n.core().unstamp(txnID)
		n.flushTxn(txnID)
		list[i] = nil
	}
	if cap(list) > cap(c.spare) {
		c.spare = list[:0]
	}
	return len(list)
}

// registerTxnComp records that the transaction touched the component.
// Callers may hold component locks; compsMu is a leaf below them. Entries
// survive component merges — the flush resolves each entry through find()
// and deduplicates, so a retired component is just an alias for its root.
func (d *Detector) registerTxnComp(txnID uint64, c *component) {
	d.compsMu.Lock()
	defer d.compsMu.Unlock()
	if d.txnComps == nil {
		d.txnComps = make(map[uint64][]*component)
	}
	list, ok := d.txnComps[txnID]
	if !ok {
		if len(d.txnComps) >= maxTrackedTxns {
			d.flushSweep.Store(true)
			return
		}
		if n := len(d.spareComps); n > 0 {
			list, d.spareComps = d.spareComps[n-1], d.spareComps[:n-1]
		}
	}
	d.txnComps[txnID] = append(list, c)
}

// txnComp pairs a transaction with one component it touched.
type txnComp struct {
	txn  uint64
	comp *component
}

// takeTxnComps removes the given transactions from the fan-out map in one
// critical section and appends their touched components to out, resolved
// to roots, grouped by transaction in the order given. A root can appear
// twice for one transaction (two registered components merged since);
// the second flush finds nothing.
func (d *Detector) takeTxnComps(ids []uint64, out []txnComp) []txnComp {
	d.compsMu.Lock()
	for _, id := range ids {
		comps, ok := d.txnComps[id]
		if !ok {
			continue
		}
		delete(d.txnComps, id)
		for i, c := range comps {
			out = append(out, txnComp{id, c.find()})
			comps[i] = nil
		}
		d.spareComps = append(d.spareComps, comps[:0])
	}
	d.compsMu.Unlock()
	return out
}

// advanceTimersLocked fires this component's due timers up to the new
// clock reading, in (due, seq) order. Callers hold c.mu; the global
// virtual clock is advanced (monotonically) as timers fire so occurrences
// they produce carry the right Time.
func (c *component) advanceTimersLocked(d *Detector, to uint64) {
	for len(c.timers) > 0 && c.timers[0].due <= to {
		e := heap.Pop(&c.timers).(*timerEntry)
		delete(c.timerTxn, e)
		if e.dead {
			continue
		}
		d.vtimeAdvance(e.due)
		e.fire(e.due)
	}
}
