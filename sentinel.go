// Package sentinel is the public API of the Sentinel active OODBMS
// reproduction — an integrated active DBMS in the architecture of
// "ECA Rule Integration into an OODBMS: Architecture and Implementation"
// (Chakravarthy, Krishnaprasad, Tamizuddin, Badani; ICDE 1995).
//
// A Database bundles the storage manager (the Exodus role), the object
// layer (the Open OODB role), the local composite event detector, the
// nested transaction manager, the rule manager and the rule scheduler.
// ECA rules are written either in the Sentinel specification language
// (Exec) with condition/action functions bound by name, or directly with
// DefineRule.
//
// Basic use:
//
//	db, _ := sentinel.Open(sentinel.Options{})       // in-memory
//	db.BindAction("log", func(x *sentinel.Execution) error { ... })
//	_ = db.Exec(`
//	    class STOCK reactive { event begin(priced) set_price(price); }
//	    rule R1(priced, true, log);
//	`)
//	stock, _ := db.Class("STOCK")
//	stock.DefineMethod(sentinel.Method{Name: "set_price", ...})
//	tx, _ := db.Begin()
//	ibm, _ := db.New(tx, "STOCK", nil)
//	_, _ = db.Invoke(tx, ibm, "set_price", 42.0)     // triggers R1
//	_ = tx.Commit()
package sentinel

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/debug"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/ged"
	"repro/internal/lockmgr"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/repl"
	"repro/internal/rules"
	"repro/internal/sched"
	"repro/internal/snoop"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Re-exported building blocks, so applications only import this package.
type (
	// Txn is a (possibly nested) transaction.
	Txn = txn.Txn
	// Execution is the information a rule condition/action receives.
	Execution = rules.Execution
	// Condition is a rule condition function.
	Condition = rules.Condition
	// Action is a rule action function.
	Action = rules.Action
	// RuleSpec describes a rule for DefineRule.
	RuleSpec = rules.Spec
	// Rule is a defined rule.
	Rule = rules.Rule
	// Class is a registered class.
	Class = object.Class
	// Method describes a class method.
	Method = object.Method
	// Self is the receiver handle inside a method body.
	Self = object.Self
	// Instance is an object.
	Instance = object.Instance
	// OID identifies an object.
	OID = event.OID
	// Occurrence is an event occurrence.
	Occurrence = event.Occurrence
	// ParamList is an ordered event parameter list.
	ParamList = event.ParamList
	// Context is a Snoop parameter context.
	Context = detector.Context
	// Debugger records event/rule traces.
	Debugger = debug.Debugger
	// PromoteStats reports what Promote aborted.
	PromoteStats = storage.PromoteStats
	// Q is a declarative query over a class extent (see Database.Query).
	Q = query.Q
	// Row is one query result tuple.
	Row = query.Row
	// Pred is a query predicate tree (query.Eq, query.And, ...).
	Pred = query.Pred
	// JoinSpec is the right side of a query equi-join.
	JoinSpec = query.Join
	// Agg is one aggregate column of a grouped query.
	Agg = query.Agg
	// IndexDef describes a secondary index.
	IndexDef = query.IndexDef
	// IndexKind selects hash or ordered index structure.
	IndexKind = query.IndexKind
	// RuleWhere is a declarative rule condition (RuleSpec.Where).
	RuleWhere = rules.Where
)

// Index kinds.
const (
	HashIndex    = query.HashIndex
	OrderedIndex = query.OrderedIndex
)

// Parameter contexts.
const (
	Recent     = detector.Recent
	Chronicle  = detector.Chronicle
	Continuous = detector.Continuous
	Cumulative = detector.Cumulative
)

// Coupling modes.
const (
	Immediate = rules.Immediate
	Deferred  = rules.Deferred
	Detached  = rules.Detached
)

// Trigger modes.
const (
	Now      = rules.Now
	Previous = rules.Previous
)

// Options configures a Database.
type Options struct {
	// Dir is the database directory; "" keeps everything in memory
	// (objects, no durability) while events, rules and transactions
	// still work.
	Dir string
	// PoolSize is the buffer pool size in pages (default 64).
	PoolSize int
	// SyncWAL fsyncs the log on every flush (durable, slower).
	SyncWAL bool
	// Workers bounds concurrent rule execution within a priority class
	// (default 4).
	Workers int
	// SerialRules forces prioritized serial execution of all rules.
	SerialRules bool
	// AppName identifies this application to the global event detector.
	AppName string
	// GEDAddr, when set, connects to the global event detector at that
	// address.
	GEDAddr string
	// LockTimeout bounds lock waits (0 = wait forever; deadlocks are
	// still detected and broken). Negative values are rejected by Open.
	// It becomes lockmgr.Manager.DefaultTimeout — the bound every Lock
	// call without an explicit timeout inherits.
	LockTimeout int64 // milliseconds
	// RuleRetries is how many times a deadlock- or timeout-aborted rule
	// execution is retried, each attempt in a fresh subtransaction.
	// 0 means the default (3); -1 disables retry; other negatives are
	// rejected by Open.
	RuleRetries int
	// MaxCascadeDepth caps rule-cascade nesting (rules triggered by
	// rules; 1 = top-level only). Triggerings beyond the limit are shed:
	// dropped, counted in sentinel_rules_sheds_total, and reported
	// through the rule error hook. 0 means the default (32); -1 removes
	// the limit; other negatives are rejected by Open.
	MaxCascadeDepth int
	// DebugAddr, when set, serves /metrics (Prometheus text format) and
	// /debugz (metrics snapshot + event-graph DOT export) on that address
	// (e.g. "localhost:6060"; ":0" picks a free port — see DebugAddr()).
	DebugAddr string
	// VersionGCInterval is the period of the storage layer's background
	// version garbage collector, which reclaims MVCC undo chains older
	// than the oldest live snapshot. 0 means the storage default (1s);
	// -1 disables the background pass (Checkpoint still collects); other
	// negatives are rejected by Open.
	VersionGCInterval time.Duration
	// ReplAddr, when set, makes this database a replication leader: it
	// serves its write-ahead log to followers on that address (":0" picks
	// a free port — see ReplAddr()). Requires Dir.
	ReplAddr string
	// ReplicaOf, when set, opens this database as a read-only follower of
	// the leader shipping at that address: it continuously applies the
	// leader's WAL while serving snapshot reads (Begin returns
	// ErrFollowerReadOnly; BeginSnapshot works). Promote turns it into a
	// leader after the original fails. Requires Dir; setting both
	// ReplAddr and ReplicaOf is rejected by Open.
	ReplicaOf string
}

// Database is an active object-oriented database instance — one Open OODB
// application process in the paper's architecture, with its own local
// composite event detector.
type Database struct {
	opts    Options
	store   *storage.Store
	locks   *lockmgr.Manager
	txns    *txn.Manager
	det     *detector.Detector
	sched   *sched.Scheduler
	rules   *rules.Manager
	objects *object.Registry
	queries *query.Manager
	comp    *snoop.Compiler
	gedCli  *ged.Client
	metrics *obs.Registry

	replSrv  *repl.Server
	replFol  *repl.Follower
	failover *obs.Histogram

	debugLn  net.Listener
	debugSrv *http.Server

	mu     sync.Mutex
	closed bool
}

// Defaults for the robustness knobs (see Options). A retried rule waits
// defaultRetryBackoff before its second attempt, doubling each attempt
// (capped at 64×).
const (
	defaultRuleRetries  = 3
	defaultRetryBackoff = time.Millisecond
	defaultMaxCascade   = 32
)

// validateOptions rejects option values that would otherwise be silently
// misread (negative timeouts, budgets, or depths).
func validateOptions(opts Options) error {
	if opts.LockTimeout < 0 {
		return fmt.Errorf("sentinel: LockTimeout must be >= 0, got %d", opts.LockTimeout)
	}
	if opts.RuleRetries < -1 {
		return fmt.Errorf("sentinel: RuleRetries must be >= -1, got %d", opts.RuleRetries)
	}
	if opts.MaxCascadeDepth < -1 {
		return fmt.Errorf("sentinel: MaxCascadeDepth must be >= -1, got %d", opts.MaxCascadeDepth)
	}
	if opts.PoolSize < 0 {
		return fmt.Errorf("sentinel: PoolSize must be >= 0, got %d", opts.PoolSize)
	}
	if opts.Workers < 0 {
		return fmt.Errorf("sentinel: Workers must be >= 0, got %d", opts.Workers)
	}
	if opts.VersionGCInterval < 0 && opts.VersionGCInterval != -1 {
		return fmt.Errorf("sentinel: VersionGCInterval must be >= 0 or -1, got %v", opts.VersionGCInterval)
	}
	if opts.ReplAddr != "" && opts.ReplicaOf != "" {
		return errors.New("sentinel: set ReplAddr or ReplicaOf, not both")
	}
	if (opts.ReplAddr != "" || opts.ReplicaOf != "") && opts.Dir == "" {
		return errors.New("sentinel: replication requires a persistent database (set Dir)")
	}
	return nil
}

// Open creates (or reopens, running recovery) a database.
func Open(opts Options) (*Database, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	if opts.RuleRetries == 0 {
		opts.RuleRetries = defaultRuleRetries
	} else if opts.RuleRetries == -1 {
		opts.RuleRetries = 0
	}
	if opts.MaxCascadeDepth == 0 {
		opts.MaxCascadeDepth = defaultMaxCascade
	} else if opts.MaxCascadeDepth == -1 {
		opts.MaxCascadeDepth = 0
	}
	var store *storage.Store
	if opts.Dir != "" {
		var err error
		store, err = storage.Open(storage.Options{
			Dir:               opts.Dir,
			PoolSize:          opts.PoolSize,
			SyncWAL:           opts.SyncWAL,
			VersionGCInterval: opts.VersionGCInterval,
			Follower:          opts.ReplicaOf != "",
		})
		if err != nil {
			return nil, err
		}
	}
	locks := lockmgr.New()
	locks.DefaultTimeout = time.Duration(opts.LockTimeout) * time.Millisecond
	txns := txn.NewManager(store, locks)
	// The detector knows the transactions' families, so the deferred-rule
	// windows of interleaved transactions stay apart.
	det := detector.NewWithFamilies(txns.FamilyIDs)
	det.App = opts.AppName
	// The facade flushes whole transaction families itself (see Begin),
	// covering occurrences signalled from rule subtransactions.
	det.AutoFlush = false
	s := sched.New(opts.Workers)
	s.Serial = opts.SerialRules
	rm := rules.NewManager(det, txns, s)
	rm.RetryMax = opts.RuleRetries
	rm.RetryBackoff = defaultRetryBackoff
	rm.MaxCascade = opts.MaxCascadeDepth
	objects := object.NewRegistry(det, store)
	// The query engine maintains its secondary indexes through the object
	// layer's mutation hook and prepares declarative rule conditions
	// (RuleSpec.Where) through the rule manager's Prepare hook.
	var queries *query.Manager
	if store != nil {
		queries = query.NewManager(store, objects)
		objects.SetIndexHook(queries)
		rm.Prepare = queries.Prepare
		// Followers keep the object directory and index structures current
		// by observing committed record traffic as it is applied, in LSN
		// order; leaders never invoke the hook (they maintain in-line).
		store.SetApplyHook(func(rec *storage.LogRecord) {
			objects.ApplyRecord(rec)
			queries.ApplyRecord(rec)
		})
	}

	db := &Database{
		opts:    opts,
		store:   store,
		locks:   locks,
		txns:    txns,
		det:     det,
		sched:   s,
		rules:   rm,
		objects: objects,
		queries: queries,
	}
	db.comp = &snoop.Compiler{
		Det:        det,
		Rules:      rm,
		Objects:    objects,
		Conditions: map[string]rules.Condition{},
		Actions:    map[string]rules.Action{},
		Resolve:    db.resolveName,
	}
	// One registry is the single source of truth across every layer; the
	// registrations are read-through views over each layer's own atomics,
	// so signalling and transaction paths pay nothing for being observed.
	db.metrics = obs.NewRegistry()
	det.RegisterMetrics(db.metrics)
	s.RegisterMetrics(db.metrics)
	rm.RegisterMetrics(db.metrics)
	txns.RegisterMetrics(db.metrics)
	locks.RegisterMetrics(db.metrics)
	if store != nil {
		store.RegisterMetrics(db.metrics)
		queries.RegisterMetrics(db.metrics)
	}
	db.metrics.CounterFunc("sentinel_faults_injected_total",
		"Faults fired by the deterministic fault-injection layer since process start (0 unless a test armed an injector).",
		faults.Injected)
	// Transaction system events feed the detector; pre-commit is the
	// scheduling point for deferred rules (they must finish before the
	// commit proceeds).
	txns.SetListener(func(name string, id uint64) {
		det.SignalTxn(name, id)
		if name == event.PreCommit {
			s.DrainFamily(id)
		}
	})
	// A follower replicates the leader's catalog (including its boot
	// transaction) instead of writing one of its own — its store refuses
	// local writes anyway.
	if store != nil && !store.IsFollower() {
		boot, err := txns.Begin()
		if err != nil {
			db.closeInternals()
			return nil, err
		}
		if err := objects.InitCatalog(boot); err != nil {
			_ = boot.Abort()
			db.closeInternals()
			return nil, err
		}
		if err := boot.Commit(); err != nil {
			db.closeInternals()
			return nil, err
		}
	}
	if store != nil {
		// Rebuild the in-memory directories from the heap's committed
		// state. The follower's object directory needs an explicit pass
		// since it skips InitCatalog; both sides stay current afterwards
		// via hooks.
		if store.IsFollower() {
			if err := objects.Bootstrap(); err != nil {
				db.closeInternals()
				return nil, err
			}
		}
		if err := queries.Bootstrap(); err != nil {
			db.closeInternals()
			return nil, err
		}
		if !store.IsFollower() {
			// Entry records orphaned by heaps written before index DDL
			// existed (or by a mid-drop crash in an older build) are dead
			// weight; clear them while we know nothing is running.
			sweep, err := txns.Begin()
			if err != nil {
				db.closeInternals()
				return nil, err
			}
			if _, err := queries.SweepOrphans(sweep); err != nil {
				_ = sweep.Abort()
				db.closeInternals()
				return nil, err
			}
			if err := sweep.Commit(); err != nil {
				db.closeInternals()
				return nil, err
			}
		}
	}
	if opts.ReplAddr != "" {
		srv, err := repl.NewServer(store, opts.ReplAddr)
		if err != nil {
			db.closeInternals()
			return nil, err
		}
		db.replSrv = srv
		srv.RegisterMetrics(db.metrics)
	}
	if opts.ReplicaOf != "" {
		leaderAddr := opts.ReplicaOf
		fol, err := repl.StartFollower(store, func() string { return leaderAddr })
		if err != nil {
			db.closeInternals()
			return nil, err
		}
		db.replFol = fol
		fol.RegisterMetrics(db.metrics)
		db.failover = obs.NewHistogram(obs.DurationBuckets())
		db.metrics.RegisterHistogram("sentinel_repl_failover_seconds",
			"Time Promote took to turn this follower into a leader.",
			db.failover)
	}
	if opts.GEDAddr != "" {
		cli, err := ged.Dial(opts.GEDAddr, opts.AppName)
		if err != nil {
			db.closeInternals()
			return nil, err
		}
		db.gedCli = cli
	}
	if opts.DebugAddr != "" {
		ln, err := net.Listen("tcp", opts.DebugAddr)
		if err != nil {
			db.closeInternals()
			return nil, fmt.Errorf("sentinel: debug listener: %w", err)
		}
		db.debugLn = ln
		db.debugSrv = &http.Server{Handler: db.DebugHandler()}
		go func() { _ = db.debugSrv.Serve(ln) }()
	}
	return db, nil
}

func (db *Database) closeInternals() {
	if db.debugSrv != nil {
		_ = db.debugSrv.Close()
		db.debugSrv = nil
	}
	// Replication detaches before the store closes underneath it.
	if db.replFol != nil {
		db.replFol.Stop()
		db.replFol = nil
	}
	if db.replSrv != nil {
		db.replSrv.Close()
		db.replSrv = nil
	}
	if db.gedCli != nil {
		_ = db.gedCli.Flush()
		_ = db.gedCli.Close()
	}
	if db.store != nil {
		_ = db.store.Close()
	}
}

// Close waits for detached rules and shuts the database down.
func (db *Database) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return errors.New("sentinel: database already closed")
	}
	db.closed = true
	db.mu.Unlock()
	db.rules.WaitDetached()
	db.sched.Drain()
	db.sched.Close()
	db.closeInternals()
	return nil
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

// Begin starts a top-level transaction. When it finishes (commit or
// abort), every occurrence it or its rule subtransactions signalled is
// flushed from the event graph, so events never cross transaction
// boundaries (§3.2.2(3)).
func (db *Database) Begin() (*Txn, error) {
	t, err := db.txns.Begin()
	if err != nil {
		return nil, err
	}
	db.sched.DrainFamily(t.ID()) // rules on beginTransaction
	t.OnFinish(func(txn.Status) {
		db.det.FlushTxns(t.FamilyIDs())
	})
	return t, nil
}

// ErrReadOnly is returned by write operations on a snapshot transaction
// (or inside a rule condition, which runs on the firing transaction's
// snapshot).
var ErrReadOnly = txn.ErrReadOnly

// BeginSnapshot starts a read-only snapshot transaction: it observes the
// database as of the commit timestamp current at the call, takes no
// lock-manager locks, and never blocks (or is blocked by) writers. Writes
// return ErrReadOnly. It signals no transaction events and triggers no
// rules; commit and abort are equivalent and merely release the snapshot.
func (db *Database) BeginSnapshot() (*Txn, error) {
	return db.txns.BeginSnapshot()
}

// ---------------------------------------------------------------------------
// Schema and objects
// ---------------------------------------------------------------------------

// DefineClass registers a class (reactive classes signal method events).
func (db *Database) DefineClass(name, super string, reactive bool) (*Class, error) {
	return db.objects.DefineClass(name, super, reactive)
}

// Class returns a registered class so methods can be attached.
func (db *Database) Class(name string) (*Class, error) { return db.objects.Class(name) }

// New creates an object.
func (db *Database) New(tx *Txn, class string, attrs map[string]any) (*Instance, error) {
	return db.objects.New(tx, class, attrs)
}

// Load fetches an object by OID.
func (db *Database) Load(tx *Txn, oid OID) (*Instance, error) { return db.objects.Load(tx, oid) }

// Delete removes an object.
func (db *Database) Delete(tx *Txn, oid OID) error { return db.objects.Delete(tx, oid) }

// Persist writes an object's mutated attributes back to the store — the
// programmatic alternative to invoking a Mutates method. Index
// maintenance and event signalling semantics match a method update,
// minus the method events.
func (db *Database) Persist(tx *Txn, obj *Instance) error { return db.objects.Persist(tx, obj) }

// ForEach visits the class extent — every object of the class, and of
// its subclasses when includeSubclasses is set — in OID order. Rule
// conditions use it to query database state. fn returning false stops
// the scan.
func (db *Database) ForEach(tx *Txn, class string, includeSubclasses bool, fn func(*Instance) bool) error {
	return db.objects.ForEach(tx, class, includeSubclasses, fn)
}

// ---------------------------------------------------------------------------
// Queries and indexes
// ---------------------------------------------------------------------------

// Query compiles and runs a declarative query under tx, returning the
// materialized rows. Equality and range conjuncts of q.Where bind to a
// secondary index when one covers them; every candidate is re-verified
// against the transaction's view, so results are exactly what a full
// extent scan would produce. Requires a persistent database (Options.Dir).
func (db *Database) Query(tx *Txn, q Q) ([]Row, error) {
	if db.queries == nil {
		return nil, query.ErrNotPersistent
	}
	return db.queries.Run(tx, q)
}

// QueryIter compiles q into a streaming iterator (see query.Iterator).
// Close it before resolving tx.
func (db *Database) QueryIter(tx *Txn, q Q) (query.Iterator, error) {
	if db.queries == nil {
		return nil, query.ErrNotPersistent
	}
	return db.queries.Plan(tx, q)
}

// ExplainQuery renders the access plan the compiler would choose for q.
func (db *Database) ExplainQuery(q Q) string {
	if db.queries == nil {
		return "unavailable (in-memory database)"
	}
	return db.queries.Explain(q)
}

// ExplainRule renders the prepared plan of a rule's Where condition — the
// access path its firings take now, re-planned first if index DDL has made
// it stale.
func (db *Database) ExplainRule(name string) (string, error) {
	r, err := db.rules.Get(name)
	if err != nil {
		return "", err
	}
	if r.Where() == nil {
		return "", fmt.Errorf("sentinel: rule %q has no prepared Where condition", name)
	}
	return r.Where().Explain(), nil
}

// CreateIndex builds a secondary index on class.attr inside tx: the
// definition, its WAL record and the extent backfill commit or abort as
// one unit. DDL serializes against the class's writers via the class lock.
func (db *Database) CreateIndex(tx *Txn, class, attr string, kind IndexKind) (IndexDef, error) {
	if db.queries == nil {
		return IndexDef{}, query.ErrNotPersistent
	}
	return db.queries.CreateIndex(tx, class, attr, kind)
}

// DropIndex removes the index of the given kind on class.attr inside tx.
func (db *Database) DropIndex(tx *Txn, class, attr string, kind IndexKind) error {
	if db.queries == nil {
		return query.ErrNotPersistent
	}
	return db.queries.DropIndex(tx, class, attr, kind)
}

// Indexes lists the live secondary index definitions.
func (db *Database) Indexes() []IndexDef {
	if db.queries == nil {
		return nil
	}
	return db.queries.Defs()
}

// QueryManager exposes the query engine (tests, tooling).
func (db *Database) QueryManager() *query.Manager { return db.queries }

// Bind names an object in the name manager.
func (db *Database) Bind(tx *Txn, name string, oid OID) error {
	return db.objects.Bind(tx, name, oid)
}

// Resolve looks up a named object.
func (db *Database) Resolve(tx *Txn, name string) (OID, error) {
	return db.objects.Resolve(tx, name)
}

// Invoke calls a method on an object. For reactive classes this signals
// the begin/end primitive events; the immediate rules it triggered run to
// completion before Invoke returns (the application is suspended at the
// scheduling point, as in the paper). Concurrent transactions on other
// objects proceed meanwhile: object locks are per OID, and a scheduling
// point runs its own transaction family's rules only.
func (db *Database) Invoke(tx *Txn, obj *Instance, method string, args ...any) (any, error) {
	out, err := db.objects.Invoke(tx, obj, method, args...)
	db.drain(tx)
	return out, err
}

// drain is the scheduling point of an application call under tx: it runs
// the rules of tx's transaction family, leaving other families' to their
// own scheduling points. Without a transaction there is no family to pick,
// and every queued rule runs.
func (db *Database) drain(tx *Txn) {
	if tx == nil {
		db.sched.Drain()
		return
	}
	db.sched.DrainFamily(tx.Root().ID())
}

// ---------------------------------------------------------------------------
// Events and rules
// ---------------------------------------------------------------------------

// Exec compiles Sentinel event/rule declarations (classes, events, rules).
// The whole specification is built inside one detector lock window and its
// rules installed as one batch, so a large rule base costs two
// structure-lock acquisitions and one admission-index rebuild instead of
// one per declaration. A specification that fails — at any declaration, or
// while its rules are installed — leaves none of its rules defined, not
// even those declared before the failing one; classes and events compiled
// before the error remain.
func (db *Database) Exec(spec string) error { return db.comp.CompileSource(spec) }

// LoadRules is Exec, kept for callers loading rule bases.
func (db *Database) LoadRules(spec string) error { return db.Exec(spec) }

// BindCondition binds a condition function name for Exec rule
// declarations.
func (db *Database) BindCondition(name string, c Condition) { db.comp.Conditions[name] = c }

// BindAction binds an action function name for Exec rule declarations.
func (db *Database) BindAction(name string, a Action) { db.comp.Actions[name] = a }

// DefineRule defines a rule programmatically.
func (db *Database) DefineRule(spec RuleSpec) (*Rule, error) { return db.rules.Define(spec) }

// DefineRules defines a batch of rules in one detector lock window (see
// rules.Manager.DefineBatch). All-or-nothing: on error no rule of the
// batch is installed.
func (db *Database) DefineRules(specs []RuleSpec) ([]*Rule, error) {
	return db.rules.DefineBatch(specs)
}

// GetRule returns a rule by name (for Enable/Disable).
func (db *Database) GetRule(name string) (*Rule, error) { return db.rules.Get(name) }

// DropRule disables and removes a rule.
func (db *Database) DropRule(name string) error { return db.rules.Drop(name) }

// RaiseEvent signals an explicit (application-defined abstract) event.
// The event must have been declared (Exec "event name = ..." declares
// composite events; use DefineExplicitEvent for raisable primitives).
// The rules it triggers run before it returns: tx's family's rules, or —
// with a nil tx — every queued rule.
func (db *Database) RaiseEvent(tx *Txn, name string, params ParamList) error {
	id := uint64(0)
	if tx != nil {
		var err error
		if id, err = tx.Materialize(); err != nil {
			return err
		}
	}
	if err := db.det.SignalExplicit(name, params, id); err != nil {
		return err
	}
	db.drain(tx)
	return nil
}

// RaiseEventFrom signals an explicit event from inside a rule action,
// under the rule's subtransaction. Unlike RaiseEvent it does not drain the
// scheduler — triggered rules run after the current rule completes,
// depth-first, per the nested-execution model.
func (db *Database) RaiseEventFrom(x *Execution, name string, params ParamList) error {
	id, err := x.Txn.Materialize()
	if err != nil {
		return err
	}
	return db.det.SignalExplicit(name, params, id)
}

// DefineExplicitEvent declares an explicit event that RaiseEvent can
// signal.
func (db *Database) DefineExplicitEvent(name string) error {
	_, err := db.det.DefineExplicit(name)
	return err
}

// AdvanceTime moves the virtual clock forward, firing due temporal events
// (PLUS, P, P*) and running any rules they trigger.
func (db *Database) AdvanceTime(to uint64) {
	db.det.AdvanceTime(to)
	db.sched.Drain()
}

// Now returns the virtual clock reading.
func (db *Database) Now() uint64 { return db.det.Now() }

// StartClock drives the virtual clock from wall time — one unit per
// resolution tick (minimum 1ms) — so temporal events fire online, and
// runs any rules they trigger. It returns a stop function; stop the clock
// before Close.
func (db *Database) StartClock(resolution time.Duration) (stop func()) {
	if resolution < time.Millisecond {
		resolution = time.Millisecond
	}
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(resolution)
		defer ticker.Stop()
		start := time.Now()
		base := db.det.Now()
		for {
			select {
			case <-stopCh:
				return
			case now := <-ticker.C:
				db.AdvanceTime(base + uint64(now.Sub(start)/resolution))
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stopCh) })
		<-done
	}
}

// resolveName resolves instance names in Snoop instance-level events via
// the name manager, on a snapshot transaction: the compiler calls it inside
// the detector's lock window, where a read-write transaction's begin
// event would deadlock, and a snapshot signals nothing.
func (db *Database) resolveName(name string) (event.OID, error) {
	tx, err := db.txns.BeginSnapshot()
	if err != nil {
		return 0, err
	}
	defer func() { _ = tx.Abort() }()
	return db.objects.Resolve(tx, name)
}

// ---------------------------------------------------------------------------
// Event logging and batch detection
// ---------------------------------------------------------------------------

// RecordEvents starts appending every primitive event occurrence to w (a
// stored event log for batch detection). The returned stop function ends
// recording. Only one recorder or debugger can be installed at a time.
// Signals keep the path they take unrecorded; the log also captures
// occurrences nothing subscribes to. Concurrent signallers are logged in
// the order each expression tree consumed them.
func (db *Database) RecordEvents(w io.Writer) (stop func(), err error) {
	log := detector.NewEventLog(w)
	db.det.SetTracer(log.Recorder())
	return func() { db.det.SetTracer(nil) }, nil
}

// ReplayLog feeds a stored event log through the detector in batch mode:
// composite events are detected and rules run exactly as they would have
// online (the paper's after-the-fact detection). Returns the number of
// occurrences replayed.
func (db *Database) ReplayLog(r io.Reader) (int, error) {
	n, err := detector.Replay(r, db.det)
	db.sched.Drain()
	return n, err
}

// ---------------------------------------------------------------------------
// Global events (inter-application)
// ---------------------------------------------------------------------------

// ErrNoGED is returned by global-event calls on a database opened without
// a GEDAddr.
var ErrNoGED = errors.New("sentinel: database not connected to a global event detector")

// ShareEvent forwards every local occurrence of the named event to the
// global event detector, making it available to global composite events.
func (db *Database) ShareEvent(name string) error {
	if db.gedCli == nil {
		return ErrNoGED
	}
	_, err := db.det.Subscribe(name, Recent, db.gedCli.Forwarder())
	return err
}

// FlushGlobalEvents blocks until the GED has acknowledged every
// contribution sent so far — the durability barrier for shared events.
func (db *Database) FlushGlobalEvents() error {
	if db.gedCli == nil {
		return ErrNoGED
	}
	return db.gedCli.Flush()
}

// OnGlobalEventFrom streams the GED's durable contribution log to h:
// records from offset `from` replay first (so a subscriber joining late
// catches up on everything it missed), then live contributions follow.
// Event name "*" matches every record. Delivery is at-least-once — h
// must tolerate redelivery, and the offset argument is the dedup key. It
// returns the log end at subscription time. Composite detections are not
// logged; this streams the primitive contributions they are built from.
func (db *Database) OnGlobalEventFrom(eventName string, from uint64, h func(occ *Occurrence, offset uint64)) (uint64, error) {
	if db.gedCli == nil {
		return 0, ErrNoGED
	}
	return db.gedCli.SubscribeFrom(eventName, from, func(occ *event.Occurrence, offset uint64) {
		h(occ, offset)
	})
}

// OnGlobalEvent registers a detached rule on a global composite event:
// when the GED detects it, the action runs here in a fresh top-level
// transaction.
func (db *Database) OnGlobalEvent(eventName string, ctx Context, action Action) error {
	if db.gedCli == nil {
		return ErrNoGED
	}
	return db.gedCli.Subscribe(eventName, ctx, func(occ *Occurrence, dctx Context) {
		t, err := db.txns.Begin()
		if err != nil {
			return
		}
		exec := &Execution{Occurrence: occ, Context: dctx, Txn: t}
		if err := action(exec); err != nil {
			_ = t.Abort()
			return
		}
		_ = t.Commit()
	})
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

// ErrFollowerReadOnly is returned by write operations on a follower
// database (Options.ReplicaOf); snapshot reads still work.
var ErrFollowerReadOnly = storage.ErrFollowerReadOnly

// ErrNotReplica is returned by Promote on a database not opened with
// Options.ReplicaOf.
var ErrNotReplica = errors.New("sentinel: database is not a replica")

// Promote turns a follower database into a leader after the original
// leader fails: following stops, every fully replicated transaction is
// published, partially shipped ones are aborted, and the database starts
// accepting writes. The failover duration is recorded in the
// sentinel_repl_failover_seconds histogram.
func (db *Database) Promote() (PromoteStats, error) {
	db.mu.Lock()
	fol := db.replFol
	db.replFol = nil
	db.mu.Unlock()
	if fol == nil {
		return PromoteStats{}, ErrNotReplica
	}
	start := time.Now()
	stats, err := fol.Promote()
	if err != nil {
		return stats, err
	}
	// The counter restarts above every OID the old leader reserved.
	db.objects.ResumeOIDs()
	db.failover.Observe(time.Since(start).Seconds())
	return stats, nil
}

// ReplAddr returns the address the replication leader is serving its WAL
// on, or "" when Options.ReplAddr was not set. With ReplAddr ":0" this is
// how the chosen port is discovered.
func (db *Database) ReplAddr() string {
	if db.replSrv == nil {
		return ""
	}
	return db.replSrv.Addr()
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

// AttachDebugger installs a rule debugger recording event/rule traces.
// Like RecordEvents, it observes the path signals take anyway.
func (db *Database) AttachDebugger(limit int) *Debugger {
	dbg := debug.New(limit)
	db.det.SetTracer(dbg)
	return dbg
}

// WriteDOT exports the event graph in Graphviz DOT format.
func (db *Database) WriteDOT(w io.Writer) error { return debug.DOT(db.det, w) }

// Detector exposes the local composite event detector for advanced use
// (benchmarks, batch replay).
func (db *Database) Detector() *detector.Detector { return db.det }

// RuleManager exposes the rule manager.
func (db *Database) RuleManager() *rules.Manager {
	return db.rules

}

// TxnManager exposes the transaction manager.
func (db *Database) TxnManager() *txn.Manager { return db.txns }

// Stats returns detector activity counters. The counters are atomics, so
// reading them never blocks (or is blocked by) event detection — safe to
// poll from a monitoring goroutine at any rate.
func (db *Database) Stats() detector.Stats { return db.det.StatsSnapshot() }

// Metrics returns the database's metrics registry, with every layer —
// detector, scheduler, rules, transactions, locks and (for persistent
// databases) storage — already registered. Snapshot it, publish it on
// expvar, or mount its handlers on an existing HTTP mux.
func (db *Database) Metrics() *obs.Registry { return db.metrics }

// DebugHandler returns an http.Handler serving /metrics (Prometheus text
// format) and /debugz (metrics snapshot plus the event-graph DOT export).
// Open serves it automatically when Options.DebugAddr is set; use this to
// mount the same endpoints on an application-owned server instead.
func (db *Database) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", db.metrics.MetricsHandler())
	mux.Handle("/debugz", db.metrics.DebugzHandler(
		obs.DebugzSection{Title: "event graph (DOT)", Render: db.WriteDOT},
	))
	return mux
}

// DebugAddr returns the address the debug HTTP server is listening on, or
// "" when Options.DebugAddr was not set. With DebugAddr ":0" this is how
// the chosen port is discovered.
func (db *Database) DebugAddr() string {
	if db.debugLn == nil {
		return ""
	}
	return db.debugLn.Addr().String()
}

// String identifies the database.
func (db *Database) String() string {
	mode := "in-memory"
	if db.store != nil {
		mode = fmt.Sprintf("persistent(%s)", db.opts.Dir)
	}
	return fmt.Sprintf("sentinel[%s, app=%q]", mode, db.opts.AppName)
}
