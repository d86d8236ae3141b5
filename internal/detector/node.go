package detector

import (
	"fmt"

	"repro/internal/event"
)

// Subscriber receives composite (or primitive) event occurrences detected
// in a particular context. Rules are the usual subscribers; the global
// event detector's forwarding stubs are another. Notify is called with the
// detector's internal lock held, so implementations must not call back
// into the detector — enqueue and return.
type Subscriber interface {
	Notify(occ *event.Occurrence, ctx Context)
}

// SubscriberFunc adapts a function to the Subscriber interface.
type SubscriberFunc func(occ *event.Occurrence, ctx Context)

// Notify calls f.
func (f SubscriberFunc) Notify(occ *event.Occurrence, ctx Context) { f(occ, ctx) }

// Node is one vertex of the event graph. Leaf nodes are primitive events;
// internal nodes are Snoop operators. Every node carries two subscriber
// lists — parent operator nodes and rules — which the paper keeps separate
// to leave room for optimization, and a per-context reference count that
// enables detection in a context only while some rule needs it.
type Node interface {
	// Name returns the node's canonical name (the expression text for
	// operator nodes).
	Name() string
	// Kids returns the child nodes, in operator order.
	Kids() []Node

	// attach registers parent as the consumer of this node's output on
	// the given operand position.
	attach(parent operatorNode, side int)
	// detach removes a previously attached parent edge.
	detach(parent operatorNode, side int)

	// addContext / removeContext adjust the node's per-context reference
	// count, recursing into children (the paper's counter propagation).
	addContext(ctx Context)
	removeContext(ctx Context)
	// activeIn reports whether the node currently detects in ctx.
	activeIn(ctx Context) bool

	// subscribe adds a rule-level subscriber in the given context and
	// returns an undo function. It adjusts context counters.
	subscribe(sub Subscriber, ctx Context) func()

	// component returns the root of the connected component the node
	// belongs to — the node's serialization domain (see component.go).
	component() *component

	// flushTxn drops all stored (partial) occurrences belonging to the
	// transaction; flushAll drops everything.
	flushTxn(txnID uint64)
	flushAll()

	// occupancy returns the number of occurrences the node currently
	// stores across all contexts — partial detections awaiting a partner
	// or terminator. The torture and leak tests sum it over the graph to
	// assert failed rules never strand occurrences. Callers hold the
	// node's component lock.
	occupancy() int

	// core exposes the shared bookkeeping (pins, names, edges) to the
	// node-lifetime machinery in release.go.
	core() *nodeCore
}

// operatorNode is a Node that consumes child occurrences.
type operatorNode interface {
	Node
	// receive processes one occurrence from the child at position side,
	// in one specific context. The detector guarantees single-threaded
	// access.
	receive(occ *event.Occurrence, side int, ctx Context)
}

// parentEdge is one outgoing subscription edge of a node. core is the
// parent's bookkeeping, kept beside the interface value so propagation
// reads the parent's active-context mask and dirty stamp without a
// dynamic call per context.
type parentEdge struct {
	parent operatorNode
	core   *nodeCore
	side   int
}

// ruleEdge is one rule subscription.
type ruleEdge struct {
	sub Subscriber
	ctx Context
}

// nodeCore holds the bookkeeping every node shares: the name, subscriber
// lists, context reference counters, the owning detector (for tracing and
// emission), and the connected component the node was created in. The
// structural fields (parents, rules, refCount) are only mutated while
// holding both the detector's structure lock and the component's lock, and
// only read under one of the two — which is what lets the fast path
// propagate under the component lock alone.
type nodeCore struct {
	d        *Detector
	name     string
	comp     *component // creation-time component; find() resolves merges
	parents  []parentEdge
	rules    []*ruleEdge
	refCount [numContexts]int
	active   uint8 // bit ctx set while refCount[ctx] > 0

	// dirtyTxn is the transaction whose dirty list last took this node,
	// plus one (zero: none) — see component.markDirtyTxn. Guarded by the
	// component lock.
	dirtyTxn uint64

	// Node-lifetime bookkeeping (release.go), all guarded by structMu:
	// names lists every name (canonical plus aliases) mapping to this node
	// in the detector's registry; pins counts external holds — one per
	// alias and one per retaining rule — distinct from the per-context
	// refCount above, which only gates detection. permanent marks nodes
	// that are never collected (declared primitive and explicit events).
	names     []string
	pins      int
	permanent bool
}

func (c *nodeCore) Name() string { return c.name }

func (c *nodeCore) core() *nodeCore { return c }

// component resolves the node's current root component.
func (c *nodeCore) component() *component { return c.comp.find() }

func (c *nodeCore) attach(parent operatorNode, side int) {
	c.parents = append(c.parents, parentEdge{parent, parent.core(), side})
}

func (c *nodeCore) detach(parent operatorNode, side int) {
	for i, e := range c.parents {
		if e.parent == parent && e.side == side {
			c.parents = append(c.parents[:i], c.parents[i+1:]...)
			return
		}
	}
}

// attachLast makes (parent, side) the node's last parent edge, moving the
// edge there if it exists elsewhere.
func (c *nodeCore) attachLast(parent operatorNode, side int) {
	if k := len(c.parents); k > 0 && c.parents[k-1].parent == parent && c.parents[k-1].side == side {
		return
	}
	c.detach(parent, side)
	c.attach(parent, side)
}

// detachParent removes every parent edge leading to parent — used when
// parent itself is released, so all of its operand positions go at once
// (a duplicated operand holds two edges).
func (c *nodeCore) detachParent(parent Node) {
	out := c.parents[:0]
	for _, e := range c.parents {
		if Node(e.parent) != parent {
			out = append(out, e)
		}
	}
	for i := len(out); i < len(c.parents); i++ {
		c.parents[i] = parentEdge{}
	}
	c.parents = out
}

func (c *nodeCore) activeIn(ctx Context) bool { return c.active&(1<<ctx) != 0 }

// anyActive reports whether the node detects in at least one context.
func (c *nodeCore) anyActive() bool { return c.active != 0 }

// unstamp forgets that txnID's dirty list holds the node, so the next
// occurrence of that transaction lists it again.
func (c *nodeCore) unstamp(txnID uint64) {
	if c.dirtyTxn == txnID+1 {
		c.dirtyTxn = 0
	}
}

// bumpContext adjusts this node's counter only; Node implementations
// recurse into children in their addContext/removeContext.
func (c *nodeCore) bumpContext(ctx Context, delta int) {
	c.refCount[ctx] += delta
	switch {
	case c.refCount[ctx] < 0:
		panic(fmt.Sprintf("detector: context refcount underflow on %s/%v", c.name, ctx))
	case c.refCount[ctx] == 0:
		c.active &^= 1 << ctx
	default:
		c.active |= 1 << ctx
	}
}

// addRule registers a rule subscriber; the undo closure removes the edge
// by identity, so subscribers of any type (including func values, which
// are not comparable) can unsubscribe.
func (c *nodeCore) addRule(sub Subscriber, ctx Context) func() {
	e := &ruleEdge{sub, ctx}
	c.rules = append(c.rules, e)
	removed := false
	return func() {
		if removed {
			return
		}
		removed = true
		for i := range c.rules {
			if c.rules[i] == e {
				c.rules = append(c.rules[:i], c.rules[i+1:]...)
				return
			}
		}
	}
}

// traceNode accounts a node-level event on the component's stats shard and
// forwards it to an installed tracer. Callers hold the component's lock.
func (c *nodeCore) traceNode(root *component, kind TraceKind, occ *event.Occurrence, ctx Context) {
	switch kind {
	case TraceSignal:
		root.stats.signals.Add(1)
	case TraceDetect:
		root.stats.detections.Add(1)
	case TraceNotifyRule:
		root.stats.ruleFires.Add(1)
	}
	c.d.trace(kind, occ, ctx, c.name)
}

// emit delivers occ, detected by this node in ctx, to every parent active
// in ctx and every rule subscribed in ctx. It is the data-flow step of the
// paper's demand-driven propagation: parameters flow only along edges whose
// context is live, never to irrelevant nodes. Parents always live in the
// same component (attaching them merged the components), so the whole
// propagation happens under the single component lock the caller holds.
func (c *nodeCore) emit(occ *event.Occurrence, ctx Context) {
	root := c.comp.find()
	c.traceNode(root, TraceDetect, occ, ctx)
	for _, e := range c.parents {
		if e.core.active&(1<<ctx) != 0 {
			// The parent may store occ; record it in the per-transaction
			// dirty list so commit/abort flushes skip untouched nodes.
			root.markDirty(c.d, e.parent, e.core, occ)
			e.parent.receive(occ, e.side, ctx)
		}
	}
	for _, r := range c.rules {
		if r.ctx == ctx {
			c.traceNode(root, TraceNotifyRule, occ, ctx)
			r.sub.Notify(occ, ctx)
		}
	}
}

// emitPrimitive delivers a primitive (context-free) occurrence: parents
// process it in every context they are active in, and every rule
// subscriber is notified regardless of its context (a primitive event has
// no grouping ambiguity).
func (c *nodeCore) emitPrimitive(occ *event.Occurrence) {
	root := c.comp.find()
	c.traceNode(root, TraceSignal, occ, Recent)
	for _, e := range c.parents {
		mask := e.core.active
		if mask == 0 {
			continue
		}
		root.markDirtyTxn(c.d, e.parent, e.core, occ.Txn)
		for ctx := Context(0); mask != 0; ctx, mask = ctx+1, mask>>1 {
			if mask&1 != 0 {
				e.parent.receive(occ, e.side, ctx)
			}
		}
	}
	for _, r := range c.rules {
		c.traceNode(root, TraceNotifyRule, occ, r.ctx)
		r.sub.Notify(occ, r.ctx)
	}
}

// compose builds a composite occurrence for an operator node: the Seq and
// Time of the terminator, the transaction of the terminator, and the
// constituents in operator order.
func compose(name string, constituents ...*event.Occurrence) *event.Occurrence {
	last := constituents[len(constituents)-1]
	return &event.Occurrence{
		Name:         name,
		Kind:         event.KindComposite,
		Seq:          last.Seq,
		Time:         last.Time,
		Txn:          last.Txn,
		App:          last.App,
		Constituents: constituents,
	}
}

// occList is a small helper for per-context stores of pending occurrences.
type occList []*event.Occurrence

// dropTxn removes occurrences belonging to txnID (including composites
// with any constituent from it — a flushed transaction's parameters must
// never appear in a later detection, §3.2.2(3) of the paper).
func (l occList) dropTxn(txnID uint64) occList {
	out := l[:0]
	for _, o := range l {
		if !occFromTxn(o, txnID) {
			out = append(out, o)
		}
	}
	// Clear the tail so dropped occurrences are collectable.
	for i := len(out); i < len(l); i++ {
		l[i] = nil
	}
	return out
}

// reset empties the list for reuse, dropping its references.
func (l occList) reset() occList {
	clear(l)
	return l[:0]
}

func occFromTxn(o *event.Occurrence, txnID uint64) bool {
	if len(o.Constituents) == 0 {
		return o.Txn == txnID
	}
	for _, c := range o.Constituents {
		if occFromTxn(c, txnID) {
			return true
		}
	}
	return false
}
