package detector

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/event"
)

// TraceKind classifies detector trace events for the rule debugger.
type TraceKind int

// Trace event kinds.
const (
	// TraceSignal is a primitive occurrence entering the graph.
	TraceSignal TraceKind = iota
	// TraceDetect is a composite occurrence produced by an operator node.
	TraceDetect
	// TraceNotifyRule is a rule subscriber being notified.
	TraceNotifyRule
	// TraceFlush is an event-graph flush.
	TraceFlush
	// TraceRaw is every occurrence entering the detector, traced before
	// subscriber routing — the event-log recorder listens to this, so
	// batch replay sees the full stream even for events nothing was
	// subscribed to at recording time.
	TraceRaw
)

// String names the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceSignal:
		return "signal"
	case TraceDetect:
		return "detect"
	case TraceNotifyRule:
		return "notify"
	case TraceFlush:
		return "flush"
	case TraceRaw:
		return "input"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// Tracer observes detector activity; the rule debugger implements it.
// Installing a tracer routes every signal through the locked slow path
// (the tracer must see raw occurrences the fast path never builds), so
// detectors with a debugger or event-log recorder attached trade the
// parallel component fast path for complete, totally ordered traces.
type Tracer interface {
	Trace(kind TraceKind, occ *event.Occurrence, ctx Context, node string)
}

// Stats counts detector activity for the benchmark harness.
type Stats struct {
	Signals    uint64 // primitive occurrences entering the graph
	Detections uint64 // composite occurrences emitted by operator nodes
	RuleFires  uint64 // rule subscriber notifications
}

// statCounters is the live, atomically updated form of Stats: counters
// move out of the mutexes so StatsSnapshot never blocks signalling and the
// lock-free signal paths can still account their activity. Each component
// carries its own shard; the detector keeps one more for activity that is
// accounted before any component is chosen (fast-path drops).
type statCounters struct {
	signals    atomic.Uint64
	detections atomic.Uint64
	ruleFires  atomic.Uint64
}

// Errors reported by the detector.
var (
	ErrDuplicateEvent = errors.New("detector: event name already defined differently")
	ErrUnknownEvent   = errors.New("detector: unknown event")
	ErrBadOperand     = errors.New("detector: bad operand")
)

// Detector is the local composite event detector: one per application, as
// in Figure 2 of the paper. All methods are safe for concurrent use.
//
// The event graph is sharded by connected component (see component.go):
// each disjoint expression tree has its own mutex, stores, dirty set, and
// stats shard, so signals into independent expressions propagate on
// separate cores simultaneously. The paper's ordering requirement —
// operator state machines consume occurrences in logical-clock order — is
// preserved per component, which is exactly the scope within which any two
// occurrences can ever meet at an operator. The structure lock (structMu)
// plays the role the single graph mutex used to play for everything that
// changes the graph's shape: definitions, subscriptions, merges, class
// declarations, flushes and batch/transaction signalling serialize there,
// while the per-signal hot path routes through the copy-on-write admission
// index (admission.go) straight to the subscribing component(s) and takes
// only that component's lock.
type Detector struct {
	// structMu is the structure lock: it serializes graph mutations
	// (which may merge components) and every slow-path entry point. A
	// thread holding structMu may additionally lock components (ascending
	// id when several); the reverse order is forbidden.
	structMu sync.Mutex

	clock   event.Clock
	vtime   atomic.Uint64
	nodes   map[string]Node   // every named event; guarded by structMu
	nodeSig map[string]string // structural signature for dedup
	classes map[string][]*PrimitiveNode
	super   map[string]string // class -> superclass

	// txnWindows holds the shared window of each pair of transaction
	// events some A* expression brackets with (aperiodic.go). Guarded by
	// structMu.
	txnWindows map[[2]*PrimitiveNode]*txnWindow

	timerSeq atomic.Uint64 // global tie-break so merged heaps stay ordered

	// Condition masking (MaskTxns): masked counts, per transaction id, the
	// rule conditions currently evaluating on its behalf; maskCnt is their
	// total, read lock-free so an unmasked detector pays one atomic load.
	maskCnt atomic.Int64
	maskMu  sync.Mutex
	masked  map[uint64]int

	tracer Tracer      // guarded by structMu + all component locks
	traced atomic.Bool // tracer != nil, readable without any lock
	stats  statCounters
	obs    obsCounters                // signal-outcome and flush counters (obs.go)
	admit  atomic.Pointer[matchIndex] // lock-free admission + routing index

	// batching suppresses the per-mutation admission-index invalidation
	// while a BulkBuild window is open (the window invalidates once on
	// entry and rebuilds once on exit). Guarded by structMu.
	batching bool
	// liveNodes counts distinct nodes currently in the graph, maintained
	// on build and release so the gauge never needs a graph walk.
	liveNodes atomic.Int64

	// Component registry and transaction fan-out map; compsMu is a leaf
	// lock below the component mutexes.
	compsMu  sync.Mutex
	comps    []*component
	compID   atomic.Uint64
	txnComps map[uint64][]*component
	// spareComps recycles the lists of flushed transactions: at most one
	// per transaction ever tracked at the same time.
	spareComps [][]*component

	// flushSweep degrades commit/abort flushes to full-graph sweeps once
	// any component's dirty tracking overflowed (workloads that never
	// flush); FlushAll resets it.
	flushSweep atomic.Bool

	// App names this application for inter-application events.
	App string
	// AutoFlush flushes the event graph when a transaction commits or
	// aborts (§3.2.2(3)). Disable it to let composite events span
	// transaction boundaries, as the paper allows by deactivating the
	// flush rules.
	AutoFlush bool
}

type timerOwner struct {
	node Node
	txn  uint64
}

// New creates an empty local event detector.
func New() *Detector {
	return &Detector{
		nodes:      make(map[string]Node),
		nodeSig:    make(map[string]string),
		classes:    make(map[string][]*PrimitiveNode),
		super:      make(map[string]string),
		txnComps:   make(map[uint64][]*component),
		txnWindows: make(map[[2]*PrimitiveNode]*txnWindow),
		masked:     make(map[uint64]int),
		AutoFlush:  true,
	}
}

// trace reports detector-level activity (raw inputs, flushes) and bumps
// the detector stats shard for the node-level kinds when called from the
// serialized paths. Callers hold structMu, so reading d.tracer is safe.
func (d *Detector) trace(kind TraceKind, occ *event.Occurrence, ctx Context, node string) {
	switch kind {
	case TraceSignal:
		d.stats.signals.Add(1)
	case TraceDetect:
		d.stats.detections.Add(1)
	case TraceNotifyRule:
		d.stats.ruleFires.Add(1)
	}
	if d.tracer != nil {
		d.tracer.Trace(kind, occ, ctx, node)
	}
}

// SetTracer installs a trace observer (the rule debugger). Pass nil to
// remove it. While a tracer is installed the parallel signal fast path is
// disabled, so the tracer sees every occurrence entering the detector in
// one total order. Installation quiesces the detector: it invalidates the
// admission index and then passes through every component lock, so no
// fast-path signal begun before the install is still in flight when
// SetTracer returns.
func (d *Detector) SetTracer(t Tracer) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	d.admit.Store(nil)
	d.tracer = t
	d.traced.Store(t != nil)
	for _, c := range d.rootComps() {
		c.mu.Lock()
		_ = c // the empty critical section is the quiescence barrier
		c.mu.Unlock()
	}
}

// StatsSnapshot returns a copy of the activity counters: the sum of the
// detector shard and every component shard (including retired, merged-away
// components, whose counters are frozen). It never takes the structure or
// component locks, so snapshotting cannot stall signalling. The counters
// are monotonically non-decreasing; a snapshot taken while signals are in
// flight on other goroutines may trail those signals' effects, but is
// never torn below a single counter.
func (d *Detector) StatsSnapshot() Stats {
	d.compsMu.Lock()
	comps := d.comps
	d.compsMu.Unlock()
	s := Stats{
		Signals:    d.stats.signals.Load(),
		Detections: d.stats.detections.Load(),
		RuleFires:  d.stats.ruleFires.Load(),
	}
	for _, c := range comps {
		s.Signals += c.stats.signals.Load()
		s.Detections += c.stats.detections.Load()
		s.RuleFires += c.stats.ruleFires.Load()
	}
	return s
}

// DeclareClass registers a class and its superclass ("" for none) so
// class-level events fire for subclass instances too.
func (d *Detector) DeclareClass(name, super string) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	d.declareClassLocked(name, super)
}

// declareClassLocked implements DeclareClass; callers hold structMu.
func (d *Detector) declareClassLocked(name, super string) {
	if _, ok := d.super[name]; !ok {
		d.invalidateAdmit()
		d.super[name] = super
	}
}

// IsSubclass reports whether class equals ancestor or descends from it in
// the declared hierarchy.
func (d *Detector) IsSubclass(class, ancestor string) bool {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return d.isSubclassOf(class, ancestor)
}

// isSubclassOf reports whether class is sub (equal) or a descendant of
// ancestor. Callers hold structMu.
func (d *Detector) isSubclassOf(class, ancestor string) bool {
	for class != "" {
		if class == ancestor {
			return true
		}
		class = d.super[class]
	}
	return false
}

// register adds a node under its name, deduplicating structurally
// identical definitions: defining the same expression under the same name
// twice returns the existing node, which is how common subexpressions are
// represented only once in the graph. Callers hold structMu. The admission
// index is invalidated *before* build runs: fast-path signallers validate
// the index pointer after locking a component, so dropping it first means
// none of them can fire through routing that predates the mutation.
func (d *Detector) register(name, sig string, build func() Node) (Node, error) {
	if existing, ok := d.nodes[name]; ok {
		if d.nodeSig[name] == sig {
			d.obs.nodesShared.Add(1)
			return existing, nil
		}
		return nil, fmt.Errorf("%w: %q (%s vs %s)", ErrDuplicateEvent, name, d.nodeSig[name], sig)
	}
	d.invalidateAdmit()
	n := build()
	d.nodes[name] = n
	d.nodeSig[name] = sig
	core := n.core()
	core.names = append(core.names, name)
	d.liveNodes.Add(1)
	return n, nil
}

// invalidateAdmit drops the admission index ahead of a structure
// mutation. Inside a BulkBuild window the store is skipped: the window
// already dropped the index on entry and rebuilds it once on exit.
// Callers hold structMu.
func (d *Detector) invalidateAdmit() {
	if !d.batching {
		d.admit.Store(nil)
	}
}

// DefinePrimitive declares a named primitive method event: class-level
// when instance is zero, instance-level otherwise.
func (d *Detector) DefinePrimitive(name, class, method string, mod event.Modifier, instance event.OID) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).DefinePrimitive(name, class, method, mod, instance)
}

// DefineExplicit declares a named application-raised (abstract) event.
func (d *Detector) DefineExplicit(name string) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).DefineExplicit(name)
}

// transaction event nodes are created lazily on first reference.
func (d *Detector) txnNode(name string) *PrimitiveNode {
	if n, ok := d.nodes[name]; ok {
		return n.(*PrimitiveNode)
	}
	d.invalidateAdmit()
	p := &PrimitiveNode{
		nodeCore: nodeCore{d: d, name: name, comp: d.newComponent()},
		kind:     event.KindTransaction,
	}
	d.nodes[name] = p
	d.nodeSig[name] = "txn(" + name + ")"
	p.names = append(p.names, name)
	d.liveNodes.Add(1)
	return p
}

// TransactionEvent returns the node for one of the four transaction system
// events (event.BeginTransaction etc.), creating it on first use.
func (d *Detector) TransactionEvent(name string) (Node, error) {
	switch name {
	case event.BeginTransaction, event.PreCommit, event.CommitTransaction, event.AbortTransaction:
	default:
		return nil, fmt.Errorf("%w: %q is not a transaction event", ErrBadOperand, name)
	}
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return d.txnNode(name), nil
}

// Alias registers an additional name for an existing event node, so a
// user-chosen event name and the canonical expression text address the
// same shared node.
func (d *Detector) Alias(alias, existing string) error {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return d.aliasLocked(alias, existing)
}

// aliasLocked implements Alias; callers hold structMu. An alias counts
// as a hold on the node: a user-named event survives even when the last
// rule retaining its subtree is dropped.
func (d *Detector) aliasLocked(alias, existing string) error {
	n, ok := d.nodes[existing]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEvent, existing)
	}
	if cur, ok := d.nodes[alias]; ok {
		if cur == n {
			return nil
		}
		return fmt.Errorf("%w: %q", ErrDuplicateEvent, alias)
	}
	d.invalidateAdmit()
	d.nodes[alias] = n
	d.nodeSig[alias] = d.nodeSig[existing]
	core := n.core()
	core.names = append(core.names, alias)
	core.pins++
	return nil
}

// Lookup returns the node with the given event name.
func (d *Detector) Lookup(name string) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	if n, ok := d.nodes[name]; ok {
		return n, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownEvent, name)
}

// Events returns the names of all defined events (sorted order not
// guaranteed).
func (d *Detector) Events() []string {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	out := make([]string, 0, len(d.nodes))
	for n := range d.nodes {
		out = append(out, n)
	}
	return out
}

func childSig(kids []Node) string {
	names := make([]string, len(kids))
	for i, k := range kids {
		names[i] = k.Name()
	}
	return strings.Join(names, ",")
}

// opNode registers an operator node: the operands' components are merged
// first (an operator makes its operands reachable from one another, so
// they must share a serialization domain), then the node is created inside
// the merged component and the child edges attached under its lock.
func (d *Detector) opNode(name, sig string, kids []Node, build func(core opCore) operatorNode) (Node, error) {
	return d.register(name, sig, func() Node {
		comp := d.mergeNodeComps(kids)
		comp.mu.Lock()
		defer comp.mu.Unlock()
		n := build(opCore{nodeCore: nodeCore{d: d, name: name, comp: comp}, kids: kids})
		for i, k := range kids {
			k.attach(n, i)
		}
		return n
	})
}

// And defines name = a ∧ b.
func (d *Detector) And(name string, a, b Node) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).And(name, a, b)
}

// Or defines name = a ∨ b.
func (d *Detector) Or(name string, a, b Node) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).Or(name, a, b)
}

// Seq defines name = a ; b (a strictly before b).
func (d *Detector) Seq(name string, a, b Node) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).Seq(name, a, b)
}

// Not defines name = NOT(mid)[start, end]: end after start with no mid in
// between.
func (d *Detector) Not(name string, start, mid, end Node) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).Not(name, start, mid, end)
}

// Any defines name = ANY(m, events...): m distinct events of the list.
func (d *Detector) Any(name string, m int, events ...Node) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).Any(name, m, events...)
}

// A defines the aperiodic event name = A(start, mid, end).
func (d *Detector) A(name string, start, mid, end Node) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).A(name, start, mid, end)
}

// AStar defines the cumulative aperiodic event name = A*(start, mid, end).
func (d *Detector) AStar(name string, start, mid, end Node) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).AStar(name, start, mid, end)
}

// Plus defines name = start + delta (a temporal event delta time units
// after each start).
func (d *Detector) Plus(name string, start Node, delta uint64) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).Plus(name, start, delta)
}

// P defines the periodic event name = P(start, period, end).
func (d *Detector) P(name string, start Node, period uint64, end Node) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).P(name, start, period, end)
}

// PStar defines the cumulative periodic event name = P*(start, period, end).
func (d *Detector) PStar(name string, start Node, period uint64, end Node) (Node, error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return (&Bulk{d: d}).PStar(name, start, period, end)
}

// Subscribe attaches sub to the named event in the given parameter
// context, activating detection of the whole expression subtree in that
// context. The returned function unsubscribes (decrementing the counters,
// so detection in the context stops when no rule needs it). The whole
// subtree lives in one component by construction, so the subscription
// mutates node state under that single component's lock.
func (d *Detector) Subscribe(eventName string, ctx Context, sub Subscriber) (func(), error) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return d.subscribeLocked(eventName, ctx, sub)
}

// subscribeLocked implements Subscribe; callers hold structMu. The
// returned unsubscribe closure takes structMu itself — it runs later,
// outside any bulk window.
func (d *Detector) subscribeLocked(eventName string, ctx Context, sub Subscriber) (func(), error) {
	n, ok := d.nodes[eventName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEvent, eventName)
	}
	d.invalidateAdmit()
	root := n.component()
	root.mu.Lock()
	undo := n.subscribe(sub, ctx)
	root.mu.Unlock()
	return func() {
		d.structMu.Lock()
		defer d.structMu.Unlock()
		d.admit.Store(nil)
		r := n.component() // may have merged since the subscribe
		r.mu.Lock()
		undo()
		r.mu.Unlock()
	}, nil
}

// MaskTxns turns event signalling off for the given transactions until a
// matching UnmaskTxns. The rule manager masks a rule's subtransaction and
// its ancestors while the rule's condition runs, since conditions are
// side-effect free and events raised by them must not be acknowledged
// (§3.2.1 of the paper — there a global variable, which presumes one
// thread per application; here only signals carrying a masked transaction
// id are dropped, so other transactions' events are still detected while a
// condition runs). Masks nest and compose across goroutines.
func (d *Detector) MaskTxns(ids []uint64) { d.adjustMask(ids, 1) }

// UnmaskTxns undoes one MaskTxns of the same ids.
func (d *Detector) UnmaskTxns(ids []uint64) { d.adjustMask(ids, -1) }

func (d *Detector) adjustMask(ids []uint64, delta int) {
	d.maskMu.Lock()
	for _, id := range ids {
		if d.masked[id] += delta; d.masked[id] <= 0 {
			delete(d.masked, id)
		}
	}
	d.maskMu.Unlock()
	d.maskCnt.Add(int64(delta * len(ids)))
}

// isMasked reports whether signals of the transaction are being dropped.
// It inlines to the one atomic load an unmasked detector pays per signal.
func (d *Detector) isMasked(txnID uint64) bool {
	return d.maskCnt.Load() != 0 && d.maskedTxn(txnID)
}

func (d *Detector) maskedTxn(txnID uint64) bool {
	d.maskMu.Lock()
	defer d.maskMu.Unlock()
	return d.masked[txnID] > 0
}

// SignalMethod signals a method invocation event: every primitive event
// node defined on the class (or an ancestor class) with a matching method
// and modifier fires. It is the Notify call the Sentinel post-processor
// plants in each wrapper method — paid on every method invocation of
// every reactive class, so it is routed entirely through the admission
// index when possible: a masked transaction or an unknown (class, method,
// modifier) triple returns without locking, and a match locks only the
// component(s) the matching nodes belong to, so independent expressions
// consume signals concurrently.
func (d *Detector) SignalMethod(class, method string, mod event.Modifier, oid event.OID, params event.ParamList, txnID uint64) {
	if d.isMasked(txnID) {
		d.obs.maskedDrops.Add(1)
		return
	}
	if !d.traced.Load() {
		if idx := d.admit.Load(); idx != nil {
			entry := idx.methods[methodKey{class: class, method: method, mod: mod}]
			if entry == nil {
				d.obs.fastNoSub.Add(1)
				return // nothing could consume this signal
			}
			if d.fireMethodFast(idx, entry, class, method, mod, oid, params, txnID) {
				return
			}
			d.obs.fastStale.Add(1)
		}
	}
	d.structMu.Lock()
	defer d.structMu.Unlock()
	d.signalMethodLocked(class, method, mod, oid, params, txnID, nil)
}

// fireMethodFast fires a routed method signal under the target components'
// locks only. After locking each component it validates that the admission
// index is still current: node structure (parent edges, rules, context
// counters, component membership) only changes under the structure lock
// with the affected components locked AND the index dropped first, so an
// unchanged index pointer proves the routing and pre-filtered liveness are
// still exact. On a stale index it reports false and the caller retries on
// the serialized path; groups already fired are skipped there via the skip
// set (their components consumed the signal already).
func (d *Detector) fireMethodFast(idx *matchIndex, entry *methodEntry, class, method string, mod event.Modifier, oid event.OID, params event.ParamList, txnID uint64) bool {
	for gi := range entry.groups {
		g := &entry.groups[gi]
		g.comp.mu.Lock()
		if d.admit.Load() != idx {
			g.comp.mu.Unlock()
			if gi == 0 {
				return false
			}
			// Components of the earlier groups already consumed the
			// signal; finish the rest on the serialized path.
			d.obs.fastStale.Add(1)
			skip := make(map[*PrimitiveNode]bool)
			for _, done := range entry.groups[:gi] {
				for _, p := range done.nodes {
					skip[p] = true
				}
			}
			d.structMu.Lock()
			d.signalMethodLocked(class, method, mod, oid, params, txnID, skip)
			d.structMu.Unlock()
			return true
		}
		tmpl := getOcc()
		*tmpl = event.Occurrence{
			Kind:     event.KindMethod,
			Class:    class,
			Method:   method,
			Modifier: mod,
			Object:   oid,
			Params:   params,
			Seq:      d.clock.Next(), // stamped under the component lock
			Time:     d.vtime.Load(),
			Txn:      txnID,
			App:      d.App,
		}
		for _, p := range g.nodes {
			if p.matchesInstance(oid) {
				p.fire(tmpl)
			}
		}
		putOcc(tmpl)
		g.comp.mu.Unlock()
	}
	d.obs.fastHits.Add(1)
	return true
}

// signalMethodLocked is the serialized form of SignalMethod; callers hold
// structMu. skip lists nodes a partially completed fast-path attempt
// already fired. The template's Seq is (re)stamped under each target
// component's lock so per-component arrival order equals Seq order even
// while fast-path signals race into the same components.
func (d *Detector) signalMethodLocked(class, method string, mod event.Modifier, oid event.OID, params event.ParamList, txnID uint64, skip map[*PrimitiveNode]bool) {
	if d.isMasked(txnID) {
		return
	}
	if skip == nil {
		idx := d.admitLocked()
		if idx.methods[methodKey{class: class, method: method, mod: mod}] == nil && d.tracer == nil {
			return
		}
	}
	tmpl := getOcc()
	*tmpl = event.Occurrence{
		Kind:     event.KindMethod,
		Class:    class,
		Method:   method,
		Modifier: mod,
		Object:   oid,
		Params:   params,
		Seq:      d.clock.Next(),
		Time:     d.vtime.Load(),
		Txn:      txnID,
		App:      d.App,
	}
	d.trace(TraceRaw, tmpl, Recent, "input")
	// Walk the inheritance chain: the per-class lists are the paper's
	// primitive-event index ("each primitive event is maintained as a
	// list based on the class on which it is defined").
	var matchedArr [4]*PrimitiveNode
	matched := matchedArr[:0]
	for c := class; c != ""; c = d.super[c] {
		for _, p := range d.classes[c] {
			if p.live() && p.matches(class, method, mod, oid) && !skip[p] {
				matched = append(matched, p)
			}
		}
	}
	// Fire component by component, each group under its component's lock
	// with a Seq stamped inside the lock — fast-path signals racing into
	// the same component stamp the same way, so per-component arrival
	// order equals Seq order. In traced mode no fast path runs and the
	// tracer retains tmpl, so the original stamp must stay untouched.
	for len(matched) > 0 {
		root := matched[0].comp.find()
		root.mu.Lock()
		if d.tracer == nil {
			tmpl.Seq = d.clock.Next()
		}
		rest := matched[:0]
		for _, p := range matched {
			if p.comp.find() == root {
				p.fire(tmpl)
			} else {
				rest = append(rest, p)
			}
		}
		root.mu.Unlock()
		matched = rest
	}
	if d.tracer == nil {
		putOcc(tmpl)
	}
}

// SignalExplicit raises a named explicit event. A defined event with no
// consumers is dropped lock-free; a live one is routed straight to its
// component, so explicit events into independent expressions also
// propagate concurrently.
func (d *Detector) SignalExplicit(name string, params event.ParamList, txnID uint64) error {
	if d.isMasked(txnID) {
		d.obs.maskedDrops.Add(1)
		return nil
	}
	if !d.traced.Load() {
		if idx := d.admit.Load(); idx != nil {
			if e := idx.names[name]; e != nil && e.kind == event.KindExplicit {
				if !e.live {
					d.stats.signals.Add(1)
					d.obs.fastNoSub.Add(1)
					return nil
				}
				e.comp.mu.Lock()
				if d.admit.Load() == idx {
					occ := getOcc()
					*occ = event.Occurrence{
						Name:   name,
						Kind:   event.KindExplicit,
						Params: params,
						Seq:    d.clock.Next(),
						Time:   d.vtime.Load(),
						Txn:    txnID,
						App:    d.App,
					}
					e.node.fire(occ)
					putOcc(occ)
					e.comp.mu.Unlock()
					d.obs.fastHits.Add(1)
					return nil
				}
				e.comp.mu.Unlock()
				d.obs.fastStale.Add(1)
			}
		}
	}
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return d.signalExplicitLocked(name, params, txnID)
}

// signalExplicitLocked fires an explicit event; callers hold structMu.
func (d *Detector) signalExplicitLocked(name string, params event.ParamList, txnID uint64) error {
	if d.isMasked(txnID) {
		return nil
	}
	n, ok := d.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEvent, name)
	}
	p, ok := n.(*PrimitiveNode)
	if !ok || p.kind != event.KindExplicit {
		return fmt.Errorf("%w: %q is not an explicit event", ErrBadOperand, name)
	}
	root := p.comp.find()
	root.mu.Lock()
	occ := getOcc()
	*occ = event.Occurrence{
		Name:   name,
		Kind:   event.KindExplicit,
		Params: params,
		Seq:    d.clock.Next(),
		Time:   d.vtime.Load(),
		Txn:    txnID,
		App:    d.App,
	}
	d.trace(TraceRaw, occ, Recent, "input")
	p.fire(occ)
	root.mu.Unlock()
	if d.tracer == nil {
		putOcc(occ)
	}
	return nil
}

// SignalTxn signals one of the transaction system events. Commit and
// abort additionally flush the transaction's occurrences from the graph
// when AutoFlush is on, so that events never cross transaction boundaries.
func (d *Detector) SignalTxn(name string, txnID uint64) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	d.signalTxnLocked(name, txnID)
}

// signalTxnLocked fires a transaction event and auto-flushes on commit or
// abort; callers hold structMu. The transaction-event node's component is
// locked only around the fire; the flush then fans out to just the
// components the transaction's dirty sets touched.
func (d *Detector) signalTxnLocked(name string, txnID uint64) {
	if !d.isMasked(txnID) {
		if n, ok := d.nodes[name]; ok {
			if p, ok := n.(*PrimitiveNode); ok && p.kind == event.KindTransaction {
				root := p.comp.find()
				root.mu.Lock()
				occ := getOcc()
				*occ = event.Occurrence{
					Name: name,
					Kind: event.KindTransaction,
					Seq:  d.clock.Next(),
					Time: d.vtime.Load(),
					Txn:  txnID,
					App:  d.App,
				}
				d.trace(TraceRaw, occ, Recent, "input")
				p.fire(occ)
				root.mu.Unlock()
				if d.tracer == nil {
					putOcc(occ)
				}
			} else if d.tracer != nil {
				d.traceTxnInput(name, txnID)
			}
		} else if d.tracer != nil {
			d.traceTxnInput(name, txnID)
		}
	}
	if d.AutoFlush && (name == event.CommitTransaction || name == event.AbortTransaction) {
		d.flushTxnsLocked([]uint64{txnID})
	}
}

// traceTxnInput reports a transaction event to the tracer even when no
// node consumes it, preserving the pre-fast-path property that the raw
// trace (and therefore recorded event logs) contains the full stream.
func (d *Detector) traceTxnInput(name string, txnID uint64) {
	occ := &event.Occurrence{
		Name: name,
		Kind: event.KindTransaction,
		Seq:  d.clock.Next(),
		Time: d.vtime.Load(),
		Txn:  txnID,
		App:  d.App,
	}
	d.trace(TraceRaw, occ, Recent, "input")
}

// SignalOccurrence injects a pre-built occurrence (global events arriving
// from another application, or batch replay of an event log). The
// occurrence's Seq is remapped onto this detector's clock to preserve
// arrival order.
func (d *Detector) SignalOccurrence(occ *event.Occurrence) error {
	if d.isMasked(occ.Txn) {
		return nil
	}
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return d.signalOccurrenceLocked(occ)
}

// signalOccurrenceLocked routes a pre-built occurrence without ever
// releasing the structure lock mid-decision: the name lookup, the
// method-signature fallback, and the fire all happen in one critical
// section. Callers hold structMu.
func (d *Detector) signalOccurrenceLocked(occ *event.Occurrence) error {
	if d.isMasked(occ.Txn) {
		return nil
	}
	n, ok := d.nodes[occ.Name]
	if !ok {
		// Method events may be addressed by signature instead of name.
		if occ.Kind == event.KindMethod {
			d.signalMethodLocked(occ.Class, occ.Method, occ.Modifier, occ.Object, occ.Params, occ.Txn, nil)
			return nil
		}
		return fmt.Errorf("%w: %q", ErrUnknownEvent, occ.Name)
	}
	p, ok := n.(*PrimitiveNode)
	if !ok {
		return fmt.Errorf("%w: cannot signal composite event %q directly", ErrBadOperand, occ.Name)
	}
	root := p.comp.find()
	root.mu.Lock()
	cp := getOcc()
	*cp = *occ
	cp.Seq = d.clock.Next()
	cp.Time = d.vtime.Load()
	d.trace(TraceRaw, cp, Recent, "input")
	p.fire(cp)
	root.mu.Unlock()
	if d.tracer == nil {
		putOcc(cp)
	}
	return nil
}

// SignalBatch injects a slice of pre-built primitive occurrences — the
// bulk entry point for event log replay and the global event detector's
// fan-in. Occurrences are processed in slice order with the same routing
// as the one-at-a-time entry points: unnamed method occurrences go through
// the signature path, transaction occurrences fire the system events
// (including the AutoFlush), and everything else is routed by name. The
// virtual clock advances to each occurrence's Time first, so temporal
// events interleave exactly as they would online. It returns the number of
// occurrences processed and the first routing error, if any.
//
// A batch whose occurrences are all routable through the admission index
// (no transaction events, no clock advancement, no unknown names) is split
// per component: the target components are locked together and the batch
// fires group by group in slice order, so each component consumes its
// sub-batch in logical-clock order while other components stay available
// to concurrent signallers. Any other batch falls back to the structure
// lock.
func (d *Detector) SignalBatch(occs []event.Occurrence) (int, error) {
	if len(occs) == 0 {
		return 0, nil
	}
	d.obs.batches.Add(1)
	d.obs.batchOccs.Add(uint64(len(occs)))
	if !d.traced.Load() && d.maskCnt.Load() == 0 { // the serialized path checks the mask per occurrence
		if idx := d.admit.Load(); idx != nil && d.fireBatchFast(idx, occs) {
			return len(occs), nil
		}
	}
	d.structMu.Lock()
	defer d.structMu.Unlock()
	for i := range occs {
		occ := &occs[i]
		if occ.Time > d.vtime.Load() {
			d.advanceTimeLocked(occ.Time)
		}
		switch {
		case occ.Kind == event.KindMethod && occ.Name == "":
			d.signalMethodLocked(occ.Class, occ.Method, occ.Modifier, occ.Object, occ.Params, occ.Txn, nil)
		case occ.Kind == event.KindTransaction:
			d.signalTxnLocked(occ.Name, occ.Txn)
		default:
			if err := d.signalOccurrenceLocked(occ); err != nil {
				return i, err
			}
		}
	}
	return len(occs), nil
}

// fireBatchFast attempts the per-component batch split: it maps every
// occurrence to its target component(s) through the admission index,
// locks the distinct components in ascending id order, re-validates the
// index (all-or-nothing — no occurrence fires on a stale index), and
// fires in slice order. It reports false when any occurrence needs the
// serialized path.
func (d *Detector) fireBatchFast(idx *matchIndex, occs []event.Occurrence) bool {
	vnow := d.vtime.Load()
	type target struct {
		entry *methodEntry // method occurrences
		name  *nameEntry   // named occurrences
	}
	targets := make([]target, len(occs))
	var comps []*component
	addComp := func(c *component) {
		for _, have := range comps {
			if have == c {
				return
			}
		}
		comps = append(comps, c)
	}
	for i := range occs {
		occ := &occs[i]
		if occ.Time > vnow || occ.Kind == event.KindTransaction {
			return false // timer interleaving / flush fan-out: serialize
		}
		if occ.Kind == event.KindMethod && occ.Name == "" {
			entry := idx.methods[methodKey{class: occ.Class, method: occ.Method, mod: occ.Modifier}]
			if entry == nil {
				continue // nothing consumes it; matches the serial path
			}
			targets[i].entry = entry
			for gi := range entry.groups {
				addComp(entry.groups[gi].comp)
			}
			continue
		}
		e := idx.names[occ.Name]
		if e == nil || e.kind == event.KindTransaction {
			return false // unknown name (error path) or txn flush
		}
		if !e.live {
			// Replayed occurrence nothing consumes: account the signal
			// like the explicit fast drop and move on.
			targets[i].name = e
			continue
		}
		targets[i].name = e
		addComp(e.comp)
	}
	sortComps(comps)
	for _, c := range comps {
		c.mu.Lock()
	}
	if d.admit.Load() != idx {
		for i := len(comps) - 1; i >= 0; i-- {
			comps[i].mu.Unlock()
		}
		return false
	}
	for i := range occs {
		occ := &occs[i]
		switch {
		case targets[i].entry != nil:
			entry := targets[i].entry
			for gi := range entry.groups {
				g := &entry.groups[gi]
				tmpl := getOcc()
				*tmpl = event.Occurrence{
					Kind:     event.KindMethod,
					Class:    occ.Class,
					Method:   occ.Method,
					Modifier: occ.Modifier,
					Object:   occ.Object,
					Params:   occ.Params,
					Seq:      d.clock.Next(),
					Time:     d.vtime.Load(),
					Txn:      occ.Txn,
					App:      d.App,
				}
				for _, p := range g.nodes {
					if p.matchesInstance(occ.Object) {
						p.fire(tmpl)
					}
				}
				putOcc(tmpl)
			}
		case targets[i].name != nil:
			e := targets[i].name
			if !e.live {
				d.stats.signals.Add(1)
				continue
			}
			cp := getOcc()
			*cp = *occ
			cp.Seq = d.clock.Next()
			cp.Time = d.vtime.Load()
			e.node.fire(cp)
			putOcc(cp)
		}
	}
	for i := len(comps) - 1; i >= 0; i-- {
		comps[i].mu.Unlock()
	}
	return true
}

// FlushTxn removes every stored occurrence of the transaction from the
// whole graph (full flush, §3.2.2(3)).
func (d *Detector) FlushTxn(txnID uint64) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	d.flushTxnsLocked([]uint64{txnID})
}

// flushTxnsLocked flushes the given transactions, visiting only the
// components their dirty tracking touched; each component is flushed under
// its own lock. Callers hold structMu. Signals on other components (and,
// between two component flushes, even on the flushed transaction's other
// components) may interleave with the fan-out — commit flush is atomic per
// component, not across components, which is the documented relaxation of
// the sharded design (see DESIGN.md §7).
func (d *Detector) flushTxnsLocked(ids []uint64) {
	if d.tracer != nil {
		for _, id := range ids {
			d.trace(TraceFlush, nil, Recent, fmt.Sprintf("txn:%d", id))
		}
	}
	d.obs.txnFlushes.Add(uint64(len(ids)))
	if d.flushSweep.Load() {
		for _, id := range ids {
			d.sweepFlushTxn(id)
		}
		return
	}
	var buf [8]txnComp
	touched := d.takeTxnComps(ids, buf[:0])
	nodes := 0
	for _, tc := range touched {
		tc.comp.mu.Lock()
		nodes += tc.comp.flushTxnLocked(tc.txn)
		tc.comp.mu.Unlock()
	}
	d.obs.flushFanout.Add(uint64(len(touched)))
	d.obs.flushNodes.Add(uint64(nodes))
}

// sweepFlushTxn is the degraded full-graph flush used after dirty
// tracking overflowed: every node is visited, grouped by component so
// each component is locked once. Callers hold structMu.
func (d *Detector) sweepFlushTxn(txnID uint64) {
	roots := d.rootComps()
	d.obs.flushFanout.Add(uint64(len(roots)))
	for _, root := range roots {
		root.mu.Lock()
		delete(root.dirty, txnID)
		root.mu.Unlock()
	}
	nodes := 0
	d.forEachNodeByComp(func(root *component, ns []Node) {
		root.mu.Lock()
		for _, n := range ns {
			n.core().unstamp(txnID)
			n.flushTxn(txnID)
		}
		root.mu.Unlock()
		nodes += len(ns)
	})
	d.obs.flushNodes.Add(uint64(nodes))
	d.compsMu.Lock()
	delete(d.txnComps, txnID)
	d.compsMu.Unlock()
}

// forEachNodeByComp groups the nodes — the named ones and the shared
// transaction windows — by root component and calls fn once per group.
// Callers hold structMu (so membership is stable).
func (d *Detector) forEachNodeByComp(fn func(root *component, ns []Node)) {
	groups := make(map[*component][]Node)
	seen := make(map[Node]bool, len(d.nodes))
	for _, n := range d.nodes {
		if seen[n] {
			continue // aliases map several names to one node
		}
		seen[n] = true
		root := n.component()
		groups[root] = append(groups[root], n)
	}
	for _, w := range d.txnWindows {
		root := w.component()
		groups[root] = append(groups[root], w)
	}
	for root, ns := range groups {
		fn(root, ns)
	}
}

// FlushTxns flushes several transactions at once — typically a top-level
// transaction together with every subtransaction of its family, so that
// occurrences signalled from rule subtransactions are flushed too. The
// fan-out map is consulted once for the whole family; most of its ids
// (rule subtransactions that signalled nothing) are not in it.
func (d *Detector) FlushTxns(ids []uint64) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	d.flushTxnsLocked(ids)
}

// FlushEvent selectively flushes the subtree of one event expression.
// Dirty-set entries for the flushed nodes are left in place: a later
// transaction flush finding an already-clean node is a no-op. The subtree
// lies inside one component by construction.
func (d *Detector) FlushEvent(name string) error {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	n, ok := d.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEvent, name)
	}
	root := n.component()
	root.mu.Lock()
	var clear func(Node)
	seen := map[Node]bool{}
	clear = func(n Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		n.flushAll()
		for _, k := range n.Kids() {
			if k != nil {
				clear(k)
			}
		}
	}
	clear(n)
	root.mu.Unlock()
	d.trace(TraceFlush, nil, Recent, "event:"+name)
	return nil
}

// PendingOccurrences returns the total number of partial occurrences
// stored across the event graph — detections still waiting for a partner,
// terminator, or flush. Leak tests assert it returns to zero once every
// transaction has committed or aborted: a failed or retried rule must
// never strand its occurrences in an operator's store.
func (d *Detector) PendingOccurrences() int {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	total := 0
	d.forEachNodeByComp(func(root *component, ns []Node) {
		root.mu.Lock()
		for _, n := range ns {
			total += n.occupancy()
		}
		root.mu.Unlock()
	})
	return total
}

// FlushAll clears every node's partial state and resets dirty tracking.
func (d *Detector) FlushAll() {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	d.forEachNodeByComp(func(root *component, ns []Node) {
		root.mu.Lock()
		for _, n := range ns {
			n.flushAll()
			n.core().dirtyTxn = 0
		}
		root.dirty = make(map[uint64][]Node)
		root.dirtyOverflow = false
		root.mu.Unlock()
	})
	d.compsMu.Lock()
	d.txnComps = make(map[uint64][]*component)
	d.compsMu.Unlock()
	d.flushSweep.Store(false)
	d.trace(TraceFlush, nil, Recent, "all")
}

// ---------------------------------------------------------------------------
// Virtual time
// ---------------------------------------------------------------------------

// SeqNow returns the most recently issued logical timestamp; rules use it
// to implement the NOW trigger mode.
func (d *Detector) SeqNow() uint64 { return d.clock.Now() }

// Now returns the detector's virtual clock reading.
func (d *Detector) Now() uint64 { return d.vtime.Load() }

// vtimeAdvance moves the virtual clock monotonically forward to at least
// the given reading.
func (d *Detector) vtimeAdvance(to uint64) {
	for {
		cur := d.vtime.Load()
		if cur >= to || d.vtime.CompareAndSwap(cur, to) {
			return
		}
	}
}

// AdvanceTime moves the virtual clock to the given reading, firing every
// due temporal event. Moving backwards is a no-op. Due timers fire in
// (due, seq) order within each component; ordering across components is
// not defined — another consequence of the per-component serialization
// domain, acceptable because cross-component occurrences never meet at an
// operator.
func (d *Detector) AdvanceTime(to uint64) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	d.advanceTimeLocked(to)
}

// advanceTimeLocked fires due timers up to the new reading; callers hold
// structMu.
func (d *Detector) advanceTimeLocked(to uint64) {
	for _, root := range d.rootComps() {
		root.mu.Lock()
		root.advanceTimersLocked(d, to)
		root.mu.Unlock()
	}
	d.vtimeAdvance(to)
}

// schedule registers a timer callback on the owner's component; called
// with the owner's component lock held (from node receive paths). The
// owner is marked dirty for the transaction so the commit/abort flush
// finds and cancels the timer without a graph sweep.
func (d *Detector) schedule(owner Node, txnID uint64, due uint64, fire func(now uint64)) {
	root := owner.component()
	e := &timerEntry{due: due, seq: d.timerSeq.Add(1), fire: fire}
	root.timers.push(e)
	root.timerTxn[e] = timerOwner{node: owner, txn: txnID}
	root.markDirtyTxn(d, owner, owner.core(), txnID)
}

// cancelTimers kills pending timers of a node; txnID zero kills all of the
// node's timers, otherwise only the given transaction's. Called with the
// owner's component lock held.
func (d *Detector) cancelTimers(owner Node, txnID uint64) {
	root := owner.component()
	for e, o := range root.timerTxn {
		if o.node == owner && (txnID == 0 || o.txn == txnID) {
			e.dead = true
			delete(root.timerTxn, e)
		}
	}
}

// temporalOccurrence builds the clock-tick occurrence used by the temporal
// operators; called with the owner's component lock held.
func (d *Detector) temporalOccurrence(name string, now uint64, txnID uint64) *event.Occurrence {
	return &event.Occurrence{
		Name: name + "@tick",
		Kind: event.KindTemporal,
		Seq:  d.clock.Next(),
		Time: now,
		Txn:  txnID,
		App:  d.App,
	}
}
