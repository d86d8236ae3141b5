package detector

import (
	"errors"
	"fmt"
	"slices"
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

// Tracer observes detector activity; the rule debugger and the event-log
// recorder implement it. A tracer rides on the path signals take anyway — it
// selects nothing — so Trace is called with component locks held, from as
// many goroutines as there are components being signalled: it must
// synchronize its own state, return quickly, and not call back into the
// detector. What it may assume about order: the entries of one component
// (the TraceRaw of a signal, then the node-level entries it causes) arrive
// in the order the component consumed them, which is ascending Seq; entries
// of different components interleave arbitrarily, and the Seq on their
// occurrences orders them. A signal nothing consumes is traced (TraceRaw
// only) outside every component. The TraceRaw occurrence may be retained but
// not modified.
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
	// (which may merge components) and the serialized signal entry. A
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

	tracer atomic.Pointer[Tracer] // nil: no tracer installed
	stats  statCounters
	obs    obsCounters                // signal-outcome and flush counters (obs.go)
	admit  atomic.Pointer[matchIndex] // lock-free admission + routing index

	// batching suppresses the per-mutation admission-index invalidation
	// while a BulkBuild window is open (the window invalidates once, on
	// entry). Guarded by structMu.
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

	// families is NewWithFamilies' lookup, nil for a detector from New;
	// fixed at construction.
	families func(root uint64) []uint64
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

// NewWithFamilies creates a detector for a database whose top-level
// transactions interleave. families returns the ids of a live top-level
// transaction and of every subtransaction begun beneath it. With it the
// window an A* over two transaction events shares — the deferred-rule
// rewrite — pairs each transaction's own begin, events and preCommit
// (aperiodic.go). A detector from New has no transactions of its own to
// ask about, only the ids its signals carry: batch replay and the
// detector's own tests drive it, and its window keeps the single-window
// reading that every other A* has.
func NewWithFamilies(families func(root uint64) []uint64) *Detector {
	d := New()
	d.families = families
	return d
}

// trace hands one event to the installed tracer, if any.
func (d *Detector) trace(kind TraceKind, occ *event.Occurrence, ctx Context, node string) {
	if t := d.tracer.Load(); t != nil {
		(*t).Trace(kind, occ, ctx, node)
	}
}

// SetTracer installs a trace observer (the rule debugger, the event-log
// recorder). Pass nil to remove it. Signals keep the path they had;
// installation only quiesces the detector: it holds the structure lock and
// passes through every component lock, so when SetTracer returns no signal
// inside a component is still running with the previous tracer (or none).
func (d *Detector) SetTracer(t Tracer) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	if t == nil {
		d.tracer.Store(nil)
	} else {
		d.tracer.Store(&t)
	}
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
// already dropped the index on entry and nothing rebuilds it before the
// window closes. Callers hold structMu.
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

// outcome is what became of one signal handed to deliver.
type outcome uint8

const (
	fired      outcome = iota // its components consumed it
	unconsumed                // nothing could consume it; dropped without a lock
	stale                     // the index is no longer the published one; nothing fired
)

// deliver is the one way an occurrence enters the graph. src has been
// routed through idx to r (matchIndex.route); deliver locks the components r
// fires into (ascending id), checks under those locks that idx is still the
// published index, then stamps, raw-traces and fires. Every component of a
// route is locked before anything fires, so a signal never finds the index
// stale half-way: stale means nothing fired and the caller starts over on a
// rebuilt index (signal does, serialized).
func (d *Detector) deliver(idx *matchIndex, r *route, src *event.Occurrence) outcome {
	t := d.tracer.Load()
	if r.unconsumed(t) {
		d.drop(r, src, t)
		return unconsumed
	}
	for _, c := range r.comps {
		c.mu.Lock()
	}
	current := d.admit.Load() == idx
	if current {
		d.fire(r, src)
	}
	for i := len(r.comps) - 1; i >= 0; i-- {
		r.comps[i].mu.Unlock()
	}
	if !current {
		return stale
	}
	return fired
}

// unconsumed reports whether a signal routed to r can be dropped without
// visiting a node: nothing matches it, or the node it names has no consumer.
// While a tracer is installed the named node is visited regardless, so the
// trace shows the signal arriving.
func (r *route) unconsumed(t *Tracer) bool {
	return r == nil || !r.live && t == nil
}

// drop accounts a signal nothing consumes: a named node's arrival is
// counted as if it had fired; a signal matching no node at all leaves only
// its raw trace, built when a tracer is there to see it.
func (d *Detector) drop(r *route, src *event.Occurrence, t *Tracer) {
	if r != nil {
		d.stats.signals.Add(1)
	} else if t != nil {
		(*t).Trace(TraceRaw, d.stamp(src), Recent, "input")
	}
}

// stamp copies src into a template carrying the next logical timestamp and
// the virtual clock reading.
func (d *Detector) stamp(src *event.Occurrence) *event.Occurrence {
	tmpl := getOcc()
	*tmpl = *src
	tmpl.Seq = d.clock.Next()
	tmpl.Time = d.vtime.Load()
	return tmpl
}

// fire stamps src and propagates it from r's nodes. Callers hold the lock of
// every component of r and have checked under them that r's index is
// current; the stamp is taken and the tracer read under those locks, so
// within a component arrival order, trace order and Seq order are one order,
// and SetTracer's pass through the locks is a barrier.
func (d *Detector) fire(r *route, src *event.Occurrence) {
	tmpl := d.stamp(src)
	t := d.tracer.Load()
	if t != nil {
		(*t).Trace(TraceRaw, tmpl, Recent, "input")
	}
	for _, p := range r.nodes {
		if r.named || p.matchesInstance(src.Object) {
			p.fire(tmpl)
		}
	}
	if t == nil { // a tracer may have retained the template
		putOcc(tmpl)
	}
}

// signal is the lock-free entry: src was routed to r through the published
// index idx. With idx nil — no index is published, or the published one
// cannot route src — or stale by the time the component locks are held, the
// signal takes the serialized entry instead.
func (d *Detector) signal(idx *matchIndex, r *route, src *event.Occurrence) error {
	if idx != nil {
		switch d.deliver(idx, r, src) {
		case fired:
			d.obs.fastHits.Add(1)
			return nil
		case unconsumed:
			d.obs.fastNoSub.Add(1)
			return nil
		}
		d.obs.fastStale.Add(1)
	}
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return d.signalLocked(src)
}

// signalLocked is the serialized entry: the same deliver, on the index
// (re)built under the structure lock — which the caller holds, so the index
// cannot go stale under it.
func (d *Detector) signalLocked(src *event.Occurrence) error {
	idx := d.admitLocked()
	if r, ok := idx.route(src); ok {
		d.deliver(idx, r, src)
		return nil
	}
	n, ok := d.nodes[src.Name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEvent, src.Name)
	}
	if _, ok := n.(*PrimitiveNode); ok {
		return fmt.Errorf("%w: %q is not an explicit event", ErrBadOperand, src.Name)
	}
	return fmt.Errorf("%w: cannot signal composite event %q directly", ErrBadOperand, src.Name)
}

// named builds the occurrence of a named event raised by this application.
func (d *Detector) named(name string, kind event.Kind, params event.ParamList, txnID uint64) event.Occurrence {
	return event.Occurrence{Name: name, Kind: kind, Params: params, Txn: txnID, App: d.App}
}

// SignalMethod signals a method invocation event: every primitive event
// node defined on the class (or an ancestor class) with a matching method
// and modifier fires. It is the Notify call the Sentinel post-processor
// plants in each wrapper method — paid on every method invocation of
// every reactive class: a masked transaction or an unknown (class, method,
// modifier) triple returns without locking, and a match locks only the
// component(s) the matching nodes belong to, so independent expressions
// consume signals concurrently.
func (d *Detector) SignalMethod(class, method string, mod event.Modifier, oid event.OID, params event.ParamList, txnID uint64) {
	if d.isMasked(txnID) {
		d.obs.maskedDrops.Add(1)
		return
	}
	idx := d.admit.Load()
	var r *route
	if idx != nil {
		// Most method signals match nothing. Unless a tracer wants to see
		// them, they end here, before an occurrence is even built.
		if r = idx.methods[methodKey{class: class, method: method, mod: mod}]; r == nil && d.tracer.Load() == nil {
			d.obs.fastNoSub.Add(1)
			return
		}
	}
	_ = d.signal(idx, r, &event.Occurrence{ // a method occurrence always routes
		Kind:     event.KindMethod,
		Class:    class,
		Method:   method,
		Modifier: mod,
		Object:   oid,
		Params:   params,
		Txn:      txnID,
		App:      d.App,
	})
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
	src := d.named(name, event.KindExplicit, params, txnID)
	idx := d.admit.Load()
	r, ok := idx.route(&src)
	if !ok {
		idx = nil // the serialized entry words the error
	}
	return d.signal(idx, r, &src)
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
// abort; callers hold structMu (the flush fan-out needs it). A transaction
// event no expression uses has no node: its occurrence is built only for a
// tracer, to reach the raw trace.
func (d *Detector) signalTxnLocked(name string, txnID uint64) {
	if !d.isMasked(txnID) {
		idx := d.admitLocked()
		if r := idx.names[name]; r != nil || d.tracer.Load() != nil {
			src := d.named(name, event.KindTransaction, nil, txnID)
			d.deliver(idx, r, &src)
		}
	}
	if d.AutoFlush && (name == event.CommitTransaction || name == event.AbortTransaction) {
		d.flushTxnsLocked([]uint64{txnID})
	}
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
	return d.signalLocked(occ)
}

// SignalBatch injects a slice of pre-built primitive occurrences — the
// bulk entry point for event log replay and the global event detector's
// fan-in. Occurrences are processed in slice order with the same routing
// as the one-at-a-time entry points: unnamed method occurrences go by
// signature, transaction occurrences fire the system events (including the
// AutoFlush), and everything else is routed by name. The virtual clock
// advances to each occurrence's Time first, so temporal events interleave
// exactly as they would online. It returns the number of occurrences
// processed and the first routing error, if any.
//
// A batch the published index routes whole (no transaction events, no clock
// advancement, no unroutable occurrence) is delivered with the component
// locks hoisted over the slice (deliverBatch), so each component consumes
// its sub-batch in logical-clock order while other components stay
// available to concurrent signallers. Any other batch is delivered one
// occurrence at a time under the structure lock.
func (d *Detector) SignalBatch(occs []event.Occurrence) (int, error) {
	if len(occs) == 0 {
		return 0, nil
	}
	d.obs.batches.Add(1)
	d.obs.batchOccs.Add(uint64(len(occs)))
	if d.maskCnt.Load() == 0 { // the serialized loop checks the mask per occurrence
		if idx := d.admit.Load(); idx != nil && d.deliverBatch(idx, occs) {
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
		if occ.Kind == event.KindTransaction {
			d.signalTxnLocked(occ.Name, occ.Txn)
		} else if !d.isMasked(occ.Txn) {
			if err := d.signalLocked(occ); err != nil {
				return i, err
			}
		}
	}
	return len(occs), nil
}

// deliverBatch is deliver with the locks hoisted over a slice: route every
// occurrence, lock the distinct components in ascending id order, check the
// index once (all-or-nothing — no occurrence fires on a stale index), and
// fire in slice order. It reports false, having fired nothing, when any
// occurrence needs the structure lock.
func (d *Detector) deliverBatch(idx *matchIndex, occs []event.Occurrence) bool {
	vnow := d.vtime.Load()
	t := d.tracer.Load()
	// Both lists start on the stack: the GED hands over batches of one or
	// a few occurrences, and those should cost no more than single signals.
	var routeBuf [16]*route
	var compBuf [4]*component
	routes, comps := routeBuf[:0], compBuf[:0]
	for i := range occs {
		occ := &occs[i]
		if occ.Time > vnow || occ.Kind == event.KindTransaction {
			return false // timer interleaving / flush fan-out: serialize
		}
		r, ok := idx.route(occ)
		if !ok || r != nil && r.kind == event.KindTransaction {
			return false // the error path, or a flush fan-out
		}
		routes = append(routes, r)
		if !r.unconsumed(t) {
			for _, c := range r.comps {
				if !slices.Contains(comps, c) {
					comps = append(comps, c)
				}
			}
		}
	}
	sortComps(comps)
	for _, c := range comps {
		c.mu.Lock()
	}
	current := d.admit.Load() == idx
	if current {
		for i, r := range routes {
			if r.unconsumed(t) {
				d.drop(r, &occs[i], t)
			} else {
				d.fire(r, &occs[i])
			}
		}
	}
	for i := len(comps) - 1; i >= 0; i-- {
		comps[i].mu.Unlock()
	}
	return current
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
	if t := d.tracer.Load(); t != nil {
		for _, id := range ids {
			(*t).Trace(TraceFlush, nil, Recent, fmt.Sprintf("txn:%d", id))
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
