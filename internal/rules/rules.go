// Package rules implements Sentinel's rule manager: ECA rule definition
// with the paper's optional attributes (parameter context, coupling mode,
// priority, rule trigger mode), runtime activation and deactivation, the
// deferred-to-immediate rewrite via the A* operator, condition-side event
// masking, and execution of each triggered rule as a subtransaction on the
// priority scheduler.
package rules

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sched"
	"repro/internal/txn"
)

// CouplingMode decides when a triggered rule's condition-action pair runs
// relative to the triggering transaction (HiPAC's coupling modes).
type CouplingMode int

// Coupling modes.
const (
	// Immediate runs the rule at the next scheduling point, inside a
	// subtransaction of the triggering transaction, which is suspended.
	Immediate CouplingMode = iota
	// Deferred postpones the rule to just before the triggering
	// transaction commits. Sentinel implements it by rewriting the event
	// to A*(beginTransaction, E, preCommitTransaction).
	Deferred
	// Detached runs the rule in a separate top-level transaction,
	// asynchronously with the triggering one.
	Detached
)

// String returns the Sentinel keyword for the mode.
func (m CouplingMode) String() string {
	switch m {
	case Immediate:
		return "IMMEDIATE"
	case Deferred:
		return "DEFERRED"
	case Detached:
		return "DETACHED"
	default:
		return fmt.Sprintf("CouplingMode(%d)", int(m))
	}
}

// ParseCoupling converts a Sentinel keyword to a CouplingMode.
func ParseCoupling(s string) (CouplingMode, error) {
	switch {
	case eq(s, "IMMEDIATE"), s == "":
		return Immediate, nil
	case eq(s, "DEFERRED"):
		return Deferred, nil
	case eq(s, "DETACHED"):
		return Detached, nil
	default:
		return Immediate, fmt.Errorf("rules: unknown coupling mode %q", s)
	}
}

// TriggerMode decides which event occurrences may trigger the rule
// relative to its definition time.
type TriggerMode int

// Trigger modes.
const (
	// Now only considers constituent occurrences from the rule's
	// definition instant onward (the default).
	Now TriggerMode = iota
	// Previous also accepts occurrences that temporally precede the rule
	// definition (possible when the event expression predates the rule).
	Previous
)

// String returns the Sentinel keyword for the mode.
func (m TriggerMode) String() string {
	switch m {
	case Now:
		return "NOW"
	case Previous:
		return "PREVIOUS"
	default:
		return fmt.Sprintf("TriggerMode(%d)", int(m))
	}
}

// ParseTrigger converts a Sentinel keyword to a TriggerMode.
func ParseTrigger(s string) (TriggerMode, error) {
	switch {
	case eq(s, "NOW"), s == "":
		return Now, nil
	case eq(s, "PREVIOUS"):
		return Previous, nil
	default:
		return Now, fmt.Errorf("rules: unknown trigger mode %q", s)
	}
}

func eq(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'a' <= ca && ca <= 'z' {
			ca -= 32
		}
		if 'a' <= cb && cb <= 'z' {
			cb -= 32
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Visibility scopes a class-owned rule — the paper's future-work item
// "expanding the rule management support to public, private, and
// protected rules", realized against the class hierarchy:
//
//   - Public rules fire for any matching occurrence (the default).
//   - Protected rules fire only when every method-event constituent comes
//     from the owning class or one of its subclasses.
//   - Private rules fire only for the owning class itself, not its
//     subclasses.
type Visibility int

// Rule visibilities.
const (
	// Public rules are unrestricted.
	Public Visibility = iota
	// Protected rules cover the owning class's subtree.
	Protected
	// Private rules cover exactly the owning class.
	Private
)

// String returns the keyword for the visibility.
func (v Visibility) String() string {
	switch v {
	case Public:
		return "PUBLIC"
	case Protected:
		return "PROTECTED"
	case Private:
		return "PRIVATE"
	default:
		return fmt.Sprintf("Visibility(%d)", int(v))
	}
}

// ParseVisibility converts a keyword to a Visibility.
func ParseVisibility(s string) (Visibility, error) {
	switch {
	case eq(s, "PUBLIC"), s == "":
		return Public, nil
	case eq(s, "PROTECTED"):
		return Protected, nil
	case eq(s, "PRIVATE"):
		return Private, nil
	default:
		return Public, fmt.Errorf("rules: unknown visibility %q", s)
	}
}

// Execution is the information a rule's condition and action receive: the
// triggering occurrence (with the full constituent parameter lists), the
// detection context, and the subtransaction the rule runs in. Database
// operations performed by the action must go through Txn so that nested
// rule triggerings are attributed and scheduled correctly.
type Execution struct {
	Rule       *Rule
	Occurrence *event.Occurrence
	Context    detector.Context
	Txn        *txn.Txn
}

// Params returns the parameter lists of every constituent primitive
// occurrence, in detection order (the paper's linked PARA_LIST).
func (e *Execution) Params() []event.ParamList { return e.Occurrence.AllParams() }

// Condition is a rule condition: side-effect free, returns whether the
// action should run. A nil Condition is treated as "true".
type Condition func(*Execution) bool

// Action is a rule action. A non-nil error aborts the rule's
// subtransaction (its database effects are rolled back).
type Action func(*Execution) error

// Spec describes a rule to Define. Zero values give the paper's defaults:
// RECENT context, IMMEDIATE coupling, priority 0, NOW trigger mode.
type Spec struct {
	Name      string
	Event     string // name of a defined event
	Condition Condition
	// Where declares the condition declaratively instead: the rule fires
	// when any object of the class satisfies the predicate, evaluated
	// through the query engine (index pushdown, snapshot reads). Mutually
	// exclusive with Condition.
	Where    *Where
	Action   Action
	Context  detector.Context
	Coupling CouplingMode
	Priority int
	Trigger  TriggerMode
	// Class, when non-empty, makes this a class-owned rule subject to
	// Visibility scoping against the class hierarchy.
	Class      string
	Visibility Visibility
}

// Where is a declarative rule condition: EXISTS(class WHERE pred). The
// planner binds the predicate to a secondary index when one covers it,
// turning the condition from an O(extent) closure into an index probe.
// Class defaults to the spec's owning Class; a nil Pred tests extent
// non-emptiness. It is planned once, when the rule is defined (Manager.
// Prepare), and re-planned only after index DDL. Evaluation runs under the
// firing transaction, against its MVCC snapshot.
type Where struct {
	Class      string
	Subclasses bool
	Pred       query.Pred
}

// Errors reported by the rule manager.
var (
	ErrDuplicateRule = errors.New("rules: rule already defined")
	ErrUnknownRule   = errors.New("rules: unknown rule")
	ErrNoAction      = errors.New("rules: rule needs an action")
	// ErrCascadeShed reports a rule triggering dropped because its cascade
	// depth (rules triggered by rules) exceeded the configured limit. The
	// shed is reported through OnError and counted, never silent.
	ErrCascadeShed = errors.New("rules: cascade depth limit exceeded, triggering shed")
)

// Rule is a defined ECA rule.
type Rule struct {
	mgr       *Manager
	name      string
	eventName string // the event subscribed to (rewritten for deferred)
	userEvent string // the event the user named
	cond      Condition
	action    Action
	ctx       detector.Context
	coupling  CouplingMode
	priority  int
	trigger   TriggerMode
	class     string
	vis       Visibility
	// path is the effective priority of a top-level triggering, built once
	// (paths are immutable) instead of per firing.
	path sched.Path

	mu      sync.Mutex
	enabled bool
	minSeq  uint64
	unsub   func()

	// Fired counts completed executions (condition evaluated), for tests
	// and the debugger.
	fired uint64
}

// Name returns the rule's name.
func (r *Rule) Name() string { return r.name }

// Event returns the name of the event the user defined the rule on.
func (r *Rule) Event() string { return r.userEvent }

// Where returns the rule's prepared Where condition, nil when the rule has
// none (or no query engine compiled it).
func (r *Rule) Where() *query.Prepared {
	r.mgr.mu.Lock()
	defer r.mgr.mu.Unlock()
	return r.mgr.wheres[r]
}

// Coupling returns the rule's coupling mode.
func (r *Rule) Coupling() CouplingMode { return r.coupling }

// Priority returns the rule's priority class.
func (r *Rule) Priority() int { return r.priority }

// Context returns the rule's parameter context.
func (r *Rule) Context() detector.Context { return r.ctx }

// Enabled reports whether the rule currently fires.
func (r *Rule) Enabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enabled
}

// Fired returns the number of completed executions.
func (r *Rule) Fired() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired
}

// Manager owns the rule catalog and drives rule execution.
type Manager struct {
	det   *detector.Detector
	txns  *txn.Manager
	sched *sched.Scheduler

	mu       sync.Mutex
	rules    map[string]*Rule
	reserved map[string]struct{} // names claimed by in-flight Defines
	// wheres holds the prepared Where of each rule that has one. It is
	// kept here, not in Rule, which every firing reads: Rule is 192 bytes,
	// a size class of its own, and one pointer more would move every rule
	// to the next for the few that have a Where.
	wheres   map[*Rule]*query.Prepared
	detached sync.WaitGroup
	// chunks holds, per P, the unused tail of a chunk of firings
	// (newFiring).
	chunks sync.Pool

	// RetryMax is how many times a deadlock- or timeout-aborted rule body
	// is retried, each attempt in a fresh subtransaction. Zero disables
	// retry; the facade defaults it via sentinel.Options.RuleRetries.
	RetryMax int
	// RetryBackoff is the base delay of the bounded exponential backoff
	// between retry attempts: base << attempt, with the shift capped at 6
	// (64×). Zero means retry immediately.
	RetryBackoff time.Duration
	// MaxCascade caps the nesting depth of rule triggerings (1 =
	// top-level). A triggering that would exceed it is shed — dropped,
	// counted, and reported as ErrCascadeShed — instead of recursing
	// without bound. Zero means unlimited.
	MaxCascade int
	// Prepare compiles a Where condition, once, when its rule is defined:
	// EXISTS(class WHERE pred), probed on every firing. The facade wires
	// it to the query engine's Prepare (set once at startup, before rules
	// are defined). A rule whose Where was defined with no Prepare reports
	// through OnError when it fires and does not run its action.
	Prepare func(class string, subclasses bool, pred query.Pred) *query.Prepared

	// OnError receives errors from rule executions (aborted actions,
	// subtransaction failures). Default: discard.
	OnError func(rule string, err error)

	// met is nil until RegisterMetrics wires the manager into a registry;
	// it is written once at startup, before rules execute concurrently.
	met *ruleMetrics
}

// ruleMetrics holds the rule manager's registered instruments.
type ruleMetrics struct {
	fires     [3]*obs.Counter // indexed by CouplingMode
	enables   *obs.Counter
	disables  *obs.Counter
	errors    *obs.Counter
	retries   *obs.Counter
	exhausted *obs.Counter
	sheds     *obs.Counter
	cascade   *obs.Histogram
	bulkLoad  *obs.Histogram
}

// RegisterMetrics wires the rule manager into a metrics registry: rule
// firings by coupling mode, enable/disable churn, execution errors, and
// the cascade-depth distribution (length of the effective-priority path —
// 1 for top-level triggerings, deeper for rules triggered by rules).
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	met := &ruleMetrics{
		enables: r.Counter("sentinel_rules_enables_total",
			"Rule activations (Define and explicit Enable)."),
		disables: r.Counter("sentinel_rules_disables_total",
			"Rule deactivations (Disable and Drop)."),
		errors: r.Counter("sentinel_rules_errors_total",
			"Rule executions that failed (aborted actions, subtransaction errors, panics)."),
		retries: r.Counter("sentinel_rules_retries_total",
			"Rule attempts re-run after a deadlock or lock-timeout abort."),
		exhausted: r.Counter("sentinel_rules_retries_exhausted_total",
			"Rules that still failed with a retryable error after the retry budget."),
		sheds: r.Counter("sentinel_rules_sheds_total",
			"Rule triggerings dropped by the cascade depth limit."),
		cascade: r.Histogram("sentinel_rules_cascade_depth",
			"Nesting depth of rule triggerings (1 = top-level, deeper = rules triggered by rules).",
			obs.DepthBuckets()),
		bulkLoad: r.Histogram("sentinel_rules_bulk_load_seconds",
			"Wall time of rule definition batches, a single Define included (reservation through catalog install).",
			obs.DurationBuckets()),
	}
	met.fires[Immediate] = r.Counter("sentinel_rules_fires_immediate_total",
		"Completed executions of IMMEDIATE rules.")
	met.fires[Deferred] = r.Counter("sentinel_rules_fires_deferred_total",
		"Completed executions of DEFERRED rules.")
	met.fires[Detached] = r.Counter("sentinel_rules_fires_detached_total",
		"Completed executions of DETACHED rules.")
	r.GaugeFunc("sentinel_rules_defined",
		"Rules currently in the catalog.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.rules))
		})
	m.met = met
}

// NewManager wires a rule manager to its detector, transaction manager and
// scheduler.
func NewManager(det *detector.Detector, txns *txn.Manager, s *sched.Scheduler) *Manager {
	return &Manager{
		det:      det,
		txns:     txns,
		sched:    s,
		rules:    make(map[string]*Rule),
		reserved: make(map[string]struct{}),
		wheres:   make(map[*Rule]*query.Prepared),
	}
}

// Scheduler returns the rule scheduler (the facade drains it at
// scheduling points).
func (m *Manager) Scheduler() *sched.Scheduler { return m.sched }

// validateSpec rejects specs no Define path accepts.
func validateSpec(spec Spec) error {
	if spec.Action == nil {
		return fmt.Errorf("%w: %q", ErrNoAction, spec.Name)
	}
	if spec.Class == "" && spec.Visibility != Public {
		return fmt.Errorf("rules: %q: %v visibility requires an owning class", spec.Name, spec.Visibility)
	}
	if spec.Where != nil {
		if spec.Condition != nil {
			return fmt.Errorf("rules: %q: Where and Condition are mutually exclusive", spec.Name)
		}
		if spec.Where.Class == "" && spec.Class == "" {
			return fmt.Errorf("rules: %q: Where needs a class (Where.Class or Spec.Class)", spec.Name)
		}
	}
	return nil
}

// specCond resolves the spec's condition: the Condition func as given, or
// a probe of Where, prepared here through the query engine. The probe runs
// inside evalCondition's snapshot scope, so it reads the firing
// transaction's consistent view for free.
func (m *Manager) specCond(spec *Spec) (Condition, *query.Prepared) {
	if spec.Where == nil {
		return spec.Condition, nil
	}
	w := *spec.Where
	if w.Class == "" {
		w.Class = spec.Class
	}
	name := spec.Name
	if m.Prepare == nil {
		return func(*Execution) bool {
			m.reportError(name, errors.New("rules: Where condition but no query engine wired (Manager.Prepare)"))
			return false
		}, nil
	}
	p := m.Prepare(w.Class, w.Subclasses, w.Pred)
	return func(exec *Execution) bool {
		ok, err := p.Exists(exec.Txn)
		if err != nil {
			m.reportError(name, fmt.Errorf("rules: Where condition: %w", err))
			return false
		}
		return ok
	}, p
}

// Define creates, registers and enables one rule: DefineBatch of one.
func (m *Manager) Define(spec Spec) (*Rule, error) {
	rs, err := m.DefineBatch([]Spec{spec})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// deferredEventIn builds (or reuses) the deferred rewrite of userEvent under
// the given name and takes one pin on it for the defining rule, inside the
// caller's bulk window — so a concurrent Drop of the last other deferred
// rule on the same event cannot collect the node between the build and the
// pin.
func deferredEventIn(b *detector.Bulk, userEvent, name string) error {
	e, err := b.Lookup(userEvent)
	if err != nil {
		return err
	}
	bt, err := b.TransactionEvent(event.BeginTransaction)
	if err != nil {
		return err
	}
	pc, err := b.TransactionEvent(event.PreCommit)
	if err != nil {
		return err
	}
	if _, err := b.AStar(name, bt, e, pc); err != nil {
		return err
	}
	return b.Retain(name)
}

// DefineBatch defines and enables rules in one detector structure-lock
// window: names are reserved in one catalog critical section (so two
// concurrent definitions of one name cannot both pass the duplicate check),
// every event subtree is built and subscribed under a single BulkBuild
// window (one admission-index invalidation and rebuild for the whole
// batch), and the rules are installed in the catalog together. On any error
// the already-built rules are unwound and nothing is installed.
func (m *Manager) DefineBatch(specs []Spec) ([]*Rule, error) {
	start := time.Now()
	for i := range specs {
		if err := validateSpec(specs[i]); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	for i := range specs {
		name := specs[i].Name
		_, dupR := m.rules[name]
		_, dupP := m.reserved[name]
		if dupR || dupP {
			for j := 0; j < i; j++ {
				delete(m.reserved, specs[j].Name)
			}
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrDuplicateRule, name)
		}
		m.reserved[name] = struct{}{}
	}
	m.mu.Unlock()

	built := make([]*Rule, 0, len(specs))
	var wheres map[*Rule]*query.Prepared
	err := m.det.BulkBuild(func(b *detector.Bulk) error {
		for i := range specs {
			spec := &specs[i]
			eventName := spec.Event
			if spec.Coupling == Deferred {
				// The Sentinel pre-processor rewrite: deferred on E becomes
				// immediate on A*(beginTransaction, E, preCommitTransaction).
				rewritten := "A*(beginTransaction," + spec.Event + ",preCommitTransaction)"
				if err := deferredEventIn(b, spec.Event, rewritten); err != nil {
					return err
				}
				eventName = rewritten
			} else if err := b.Retain(spec.Event); err != nil {
				return err
			}
			cond, where := m.specCond(spec)
			r := &Rule{
				mgr:       m,
				name:      spec.Name,
				eventName: eventName,
				userEvent: spec.Event,
				cond:      cond,
				action:    spec.Action,
				ctx:       spec.Context,
				coupling:  spec.Coupling,
				priority:  spec.Priority,
				trigger:   spec.Trigger,
				class:     spec.Class,
				vis:       spec.Visibility,
				path:      sched.Path{spec.Priority},
			}
			unsub, err := b.Subscribe(eventName, spec.Context, r)
			if err != nil {
				_ = b.Release(eventName)
				return err
			}
			// The rule is enabled directly: it is not yet published, so no
			// concurrent Enable/Disable can race the unlocked dance Enable
			// performs for published rules.
			r.unsub = unsub
			r.enabled = true
			if spec.Trigger == Now {
				r.minSeq = b.SeqNow() + 1
			}
			built = append(built, r)
			if where != nil {
				if wheres == nil {
					wheres = make(map[*Rule]*query.Prepared)
				}
				wheres[r] = where
			}
		}
		return nil
	})
	if err != nil {
		for _, r := range built {
			r.Disable()
			_ = m.det.Release(r.eventName)
		}
		m.mu.Lock()
		for i := range specs {
			delete(m.reserved, specs[i].Name)
		}
		m.mu.Unlock()
		return nil, err
	}
	m.mu.Lock()
	for _, r := range built {
		delete(m.reserved, r.name)
		m.rules[r.name] = r
	}
	maps.Copy(m.wheres, wheres)
	m.mu.Unlock()
	if met := m.met; met != nil {
		met.enables.Add(uint64(len(built)))
		met.bulkLoad.ObserveDuration(time.Since(start))
	}
	return built, nil
}

// Get returns a defined rule.
func (m *Manager) Get(name string) (*Rule, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.rules[name]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownRule, name)
}

// Rules returns the names of all defined rules.
func (m *Manager) Rules() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.rules))
	for n := range m.rules {
		out = append(out, n)
	}
	return out
}

// Drop disables and removes a rule, releasing its hold on the event
// subtree: subexpression nodes no surviving rule or alias reaches are
// collected, and for a deferred rule the A*(beginTransaction, E,
// preCommit) rewrite event goes with the last deferred rule on E —
// previously it stayed resident in the graph forever with no subscribers.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	r, ok := m.rules[name]
	delete(m.rules, name)
	delete(m.wheres, r)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRule, name)
	}
	r.Disable()
	_ = m.det.Release(r.eventName)
	return nil
}

// WaitDetached blocks until every in-flight detached rule finished; the
// facade calls it on close.
func (m *Manager) WaitDetached() { m.detached.Wait() }

// Enable (re)activates the rule. In NOW trigger mode only occurrences
// from this instant onward are considered.
//
// r.mu is never held across the detector call: Notify runs under the
// event graph's component locks and takes r.mu, so holding r.mu while
// Subscribe acquires those same locks would invert the order and
// deadlock. Instead the subscription happens unlocked and a concurrent
// Enable is resolved afterwards — the loser unsubscribes its duplicate.
func (r *Rule) Enable() error {
	r.mu.Lock()
	if r.enabled {
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	unsub, err := r.mgr.det.Subscribe(r.eventName, r.ctx, r)
	if err != nil {
		return err
	}
	var minSeq uint64
	if r.trigger == Now {
		minSeq = r.mgr.det.SeqNow() + 1
	}
	r.mu.Lock()
	if r.enabled {
		r.mu.Unlock()
		unsub() // lost a race with another Enable; drop the duplicate
		return nil
	}
	r.unsub = unsub
	r.enabled = true
	r.minSeq = minSeq
	r.mu.Unlock()
	if met := r.mgr.met; met != nil {
		met.enables.Inc()
	}
	return nil
}

// Disable deactivates the rule: it unsubscribes from the event graph, so
// the per-node context counters drop and detection in this context stops
// if no other rule needs it. The unsubscribe runs after r.mu is released,
// for the same lock-order reason as Enable.
func (r *Rule) Disable() {
	r.mu.Lock()
	if !r.enabled {
		r.mu.Unlock()
		return
	}
	unsub := r.unsub
	r.unsub = nil
	r.enabled = false
	r.mu.Unlock()
	unsub()
	if met := r.mgr.met; met != nil {
		met.disables.Inc()
	}
}

// inScope applies the rule's visibility: every method-event constituent
// must come from the owning class (private) or its subtree (protected).
// Non-method constituents (transaction, explicit, temporal events) carry
// no class and pass.
func (r *Rule) inScope(occ *event.Occurrence) bool {
	if r.class == "" || r.vis == Public {
		return true
	}
	for _, leaf := range occ.Leaves() {
		if leaf.Kind != event.KindMethod {
			continue
		}
		switch r.vis {
		case Private:
			if leaf.Class != r.class {
				return false
			}
		case Protected:
			if !r.mgr.det.IsSubclass(leaf.Class, r.class) {
				return false
			}
		}
	}
	return true
}

// Name, Visibility and Class accessors for introspection.

// Class returns the owning class ("" for application-level rules).
func (r *Rule) Class() string { return r.class }

// Visibility returns the rule's scope.
func (r *Rule) Visibility() Visibility { return r.vis }

// firing is one triggered rule: its scheduler task, the Execution its
// condition and action see, and the subtransaction shell it runs in, side
// by side in one value (newFiring). It is its task's job (Run) and its
// transaction's task (txn.Task), which is how a nested triggering finds
// the path it derives its priority from.
type firing struct {
	sched.Task
	exec  Execution
	shell txn.Txn
	// inCond is set while the condition runs; condMask is the id of a
	// shell that materialised meanwhile, masked until the condition returns.
	inCond   bool
	condMask uint64
}

// firingChunk is how many firings newFiring allocates at once.
const firingChunk = 32

// newFiring returns a zeroed firing for a triggered rule. Firings are
// handed out of chunks of firingChunk values, so a firing is a slot, not
// an allocation of its own. A slot is never handed out twice: a chunk is
// garbage once its last firing is — firings live until their rule has run
// (a detached one, or an Execution a rule kept, holds its chunk longer).
// Nothing is freed by hand, so nothing can be freed early.
func (m *Manager) newFiring() *firing {
	c, _ := m.chunks.Get().(*[]firing)
	if c == nil {
		c = new([]firing)
	}
	if len(*c) == 0 {
		*c = make([]firing, firingChunk)
	}
	f := &(*c)[0]
	*c = (*c)[1:]
	m.chunks.Put(c)
	return f
}

// Notify implements detector.Subscriber: it packages the triggered rule as
// a scheduler task (or a detached goroutine). It runs under the detector
// lock, so it only enqueues.
func (r *Rule) Notify(occ *event.Occurrence, ctx detector.Context) {
	r.mu.Lock()
	if !r.enabled || occ.StartSeq() < r.minSeq {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	m := r.mgr
	if r.coupling == Detached {
		m.detached.Add(1)
		f := m.newFiring()
		f.exec = Execution{Rule: r, Occurrence: occ, Context: ctx}
		go m.runDetached(f)
		return
	}

	// Parent: the transaction the occurrence was signalled under. If a rule
	// firing runs in it, this is a nested triggering: the new rule becomes
	// a child subtransaction and its effective priority derives from the
	// triggering rule's (depth-first execution).
	prio, family := r.path, uint64(0)
	if p := m.txns.Lookup(occ.Txn); p != nil {
		family = p.Family()
		if pf, ok := p.Task().(*firing); ok {
			prio = pf.Priority.Child(r.priority)
		}
	}
	// Cascade limit: a rule storm (rules triggering rules) is shed here,
	// before the task exists, so the scheduler never sees unbounded depth.
	if max := m.MaxCascade; max > 0 && len(prio) > max {
		if met := m.met; met != nil {
			met.sheds.Inc()
		}
		m.reportError(r.name, fmt.Errorf("%w (depth %d, limit %d)", ErrCascadeShed, len(prio), max))
		return
	}
	f := m.newFiring()
	f.exec = Execution{Rule: r, Occurrence: occ, Context: ctx}
	f.Task = sched.Task{Rule: r.name, Priority: prio, Family: family, Job: f}
	m.sched.Enqueue(&f.Task)
}

// Run executes the firing as its scheduler task (Figure 3 of the paper:
// condition and action packaged as the body of the thread, bracketed by
// begin/end subtransaction).
func (f *firing) Run(t *sched.Task) {
	r := f.exec.Rule
	if !r.inScope(f.exec.Occurrence) {
		return
	}
	if met := r.mgr.met; met != nil {
		met.cascade.Observe(float64(len(t.Priority)))
	}
	r.mgr.runWithRetry(f)
}

// Materialized implements txn.Task: a shell that begins while its rule's
// condition runs — the condition asked for its id — is masked like the
// rest of the condition's transaction line until the condition returns.
func (f *firing) Materialized(t *txn.Txn) {
	if f.inCond {
		f.condMask = t.ID()
		f.exec.Rule.mgr.det.MaskTxns([]uint64{f.condMask})
	}
}

// runDetached executes a detached rule in its own top-level transaction.
func (m *Manager) runDetached(f *firing) {
	defer m.detached.Done()
	if !f.exec.Rule.inScope(f.exec.Occurrence) {
		return
	}
	if met := m.met; met != nil {
		met.cascade.Observe(1)
	}
	m.runWithRetry(f)
}

// retryable reports whether a rule failure is transient contention — a
// deadlock-victim or lock-timeout abort — rather than a real action error.
// Only these are worth re-running: the aborted subtransaction released its
// locks, so a fresh attempt can succeed once the conflicting rule finishes.
func retryable(err error) bool {
	return errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout)
}

// runWithRetry executes the rule body, re-running deadlock- and
// timeout-aborted attempts (each in a fresh subtransaction) with bounded
// exponential backoff until the attempt succeeds, fails for a non-retryable
// reason, or the retry budget is spent. The fired counter and fires metric
// advance once per triggering — on the final attempt — never per retry.
func (m *Manager) runWithRetry(f *firing) {
	r := f.exec.Rule
	for attempt := 0; ; attempt++ {
		ran, err := m.attempt(f, attempt)
		if err != nil && retryable(err) && attempt < m.RetryMax {
			if met := m.met; met != nil {
				met.retries.Inc()
			}
			if m.RetryBackoff > 0 {
				shift := attempt
				if shift > 6 {
					shift = 6
				}
				time.Sleep(m.RetryBackoff << shift)
			}
			continue
		}
		if ran {
			r.mu.Lock()
			r.fired++
			r.mu.Unlock()
			if met := m.met; met != nil {
				met.fires[r.coupling].Inc()
			}
		}
		if err != nil {
			if retryable(err) {
				if met := m.met; met != nil {
					met.exhausted.Inc()
				}
			}
			m.reportError(r.name, err)
		}
		return
	}
}

// attempt runs one execution attempt in a subtransaction of the
// triggering transaction — the firing's shell — or in a top-level
// transaction for detached rules and occurrences outside any live
// transaction. ran reports whether the body actually evaluated — false for
// begin failures and panics, matching what the fired counter means.
func (m *Manager) attempt(f *firing, n int) (ran bool, err error) {
	if n > 0 {
		// A retry runs in a fresh firing, a new Execution and shell: the
		// last attempt's may still be referenced.
		f = &firing{Task: f.Task, exec: f.exec}
	}
	var parent *txn.Txn
	detached := f.exec.Rule.coupling == Detached
	if !detached {
		parent = m.txns.Lookup(f.exec.Occurrence.Txn)
	}
	var sub *txn.Txn
	if parent != nil {
		sub = &f.shell
		err = parent.BeginShell(sub, f)
	} else {
		// Detached rule, or occurrence outside any live transaction (an
		// explicit event with no txn, a commit or abort event): own
		// top-level transaction. A non-detached rule's still carries the
		// firing, so what it triggers nests under it — a rule on
		// commitTransaction that re-triggers itself is shed at MaxCascade
		// instead of recursing forever.
		var task txn.Task
		if !detached {
			task = f
		}
		sub, err = m.txns.BeginFor(task)
	}
	if err != nil {
		return false, fmt.Errorf("begin rule subtransaction: %w", err)
	}
	f.exec.Txn = sub
	return m.runBody(f)
}

// runBody evaluates the condition (with its transactions masked, §3.2.1) and,
// if true, the action; the subtransaction commits unless the action failed
// or panicked. The attempt's subtransaction is always resolved — committed
// on success, aborted on error or panic — before runBody returns, so a
// retry can safely open a fresh one.
func (m *Manager) runBody(f *firing) (ran bool, err error) {
	r, exec := f.exec.Rule, &f.exec
	committed := false
	defer func() {
		if p := recover(); p != nil {
			_ = exec.Txn.Abort()
			ran = false
			err = fmt.Errorf("rule panicked: %v", p)
		} else if !committed {
			_ = exec.Txn.Abort()
		}
	}()

	ok := r.cond == nil || m.evalCondition(f)
	var actErr error
	if ok {
		// Fault hook: an Err verdict stands in for the action failing, a
		// Panic verdict for the action panicking — without needing a rule
		// that misbehaves on cue.
		if actErr = faults.Check(faults.RuleAction); actErr == nil {
			actErr = r.action(exec)
		}
	}
	ran = true
	if actErr != nil {
		_ = exec.Txn.Abort()
		committed = true // finished (aborted) — don't double-abort
		return ran, actErr
	}
	if cerr := exec.Txn.Commit(); cerr != nil {
		return ran, fmt.Errorf("commit rule subtransaction: %w", cerr)
	}
	committed = true
	return ran, nil
}

// evalCondition runs the rule's condition with event signalling masked
// for the rule's subtransaction and its ancestors — the transactions the
// condition can reach through exec — and nothing else, so rules of other
// transactions keep firing meanwhile. A shell has no id to mask yet and is
// not given one: if the condition makes it begin, Materialized masks it
// then. The deferred call keeps a panicking condition from leaving the
// mask on or pinning the GC horizon forever.
func (m *Manager) evalCondition(f *firing) bool {
	exec := &f.exec
	var line [4]uint64
	ids := line[:0]
	for t := exec.Txn; t != nil; t = t.Parent() {
		if !t.IsShell() {
			ids = append(ids, t.ID())
		}
	}
	m.det.MaskTxns(ids)
	f.inCond = true
	// Lock-free condition evaluation: reads see a snapshot of committed
	// state plus the triggering family's own writes, so the condition
	// neither blocks on nor blocks the commit pipeline, and a condition
	// that writes gets txn.ErrReadOnly. The snapshot lives exactly as long
	// as the evaluation (without a store there is none to take).
	release, _ := exec.Txn.UseSnapshot()
	defer func() {
		release()
		f.inCond = false
		m.det.UnmaskTxns(ids)
		if id := f.condMask; id != 0 {
			f.condMask = 0
			m.det.UnmaskTxns([]uint64{id})
		}
	}()
	return f.exec.Rule.cond(exec)
}

func (m *Manager) reportError(rule string, err error) {
	if met := m.met; met != nil {
		met.errors.Inc()
	}
	if m.OnError != nil {
		m.OnError(rule, err)
	}
}
