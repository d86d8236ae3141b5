// Package object implements the object layer Sentinel gets from the Open
// OODB Toolkit: a class registry with single inheritance, persistent
// objects addressed by OIDs, a name manager binding external names to
// OIDs, and — the part Sentinel adds — reactive method dispatch. Any
// method of a reactive class is a potential primitive event: invoking it
// through the registry signals the begin- and end-variants to the local
// composite event detector with the collected parameter list, exactly as
// the wrapper methods generated by the Sentinel post-processor do.
//
// Go has no compile-time method interception, so the generated C++
// wrapper becomes a dispatch call: Invoke(tx, obj, "set_price", 42.0)
// plays the role of obj->set_price(42.0) on a pre-processed class. This
// substitution is documented in DESIGN.md.
package object

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Errors reported by the object layer.
var (
	ErrUnknownClass   = errors.New("object: unknown class")
	ErrUnknownMethod  = errors.New("object: unknown method")
	ErrUnknownObject  = errors.New("object: no object with that OID")
	ErrUnknownName    = errors.New("object: unbound name")
	ErrDuplicateClass = errors.New("object: class already defined")
	ErrNotPersistent  = errors.New("object: registry has no store")
)

// Error is a failed operation on one object, in the shape of a
// *fs.PathError: Err is what went wrong (ErrUnknownObject, which errors.Is
// finds through Unwrap), Op and OID where. The message is formatted only
// when read, so a miss the caller expects — a follower's visibility poll,
// a probe re-verifying a stale posting — costs one small allocation.
type Error struct {
	Op  string // "load", "write", "persist" or "delete"
	OID event.OID
	Err error
}

func (e *Error) Error() string { return e.Err.Error() + ": " + e.Op + " " + e.OID.String() }
func (e *Error) Unwrap() error { return e.Err }

// unknownObject reports that op found no object oid.
func unknownObject(op string, oid event.OID) error {
	return &Error{Op: op, OID: oid, Err: ErrUnknownObject}
}

// Self is the receiver handle a method body gets: attribute access plus
// the transaction, for nested database work.
type Self struct {
	obj *Instance
	reg *Registry
	// Txn is the transaction the invocation runs under.
	Txn *txn.Txn
}

// OID returns the receiver's object identity.
func (s *Self) OID() event.OID { return s.obj.OID }

// Get returns an attribute value.
func (s *Self) Get(attr string) any { return s.obj.attrs[attr] }

// Set updates an attribute value and marks the object dirty; the change
// is persisted when the method returns.
func (s *Self) Set(attr string, v any) {
	s.obj.attrs[attr] = v
	s.obj.dirty = true
}

// Invoke calls another method on the same object (still reactive).
func (s *Self) Invoke(method string, args ...any) (any, error) {
	return s.reg.Invoke(s.Txn, s.obj, method, args...)
}

// MethodBody is a method implementation.
type MethodBody func(self *Self, args []any) (any, error)

// Method describes one method of a class.
type Method struct {
	Name string
	// Params names the formal parameters, in order; they become the
	// parameter names of the primitive event occurrences.
	Params []string
	// Mutates marks methods that modify the receiver: they take an
	// exclusive object lock, others a shared one.
	Mutates bool
	Body    MethodBody

	sig string // methodSignature, built once by DefineMethod
}

// Class is a registered class.
type Class struct {
	Name  string
	Super string
	// Reactive classes (subclasses of the paper's REACTIVE class) signal
	// method events.
	Reactive bool
	methods  map[string]*Method
	names    nameTable      // attribute names seen in this class's records
	lockName string         // the class's lock resource (persist.go)
	file     storage.FileID // the file holding the class's objects (ClassFile)
}

// DefineMethod adds (or replaces) a method.
func (c *Class) DefineMethod(m Method) {
	cp := m
	cp.sig = methodSignature(&cp)
	c.methods[m.Name] = &cp
}

// Methods lists the class's own method names, sorted.
func (c *Class) Methods() []string {
	out := make([]string, 0, len(c.methods))
	for n := range c.methods {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Instance is one object in memory. Attribute state is loaded from and
// persisted to the storage manager; identity is the OID.
type Instance struct {
	OID   event.OID
	Class *Class
	attrs map[string]any
	dirty bool
}

// Attr reads an attribute without going through a method (tests, tools).
func (i *Instance) Attr(name string) any { return i.attrs[name] }

// Attrs returns the object's attribute map. The map is the instance's live
// state — callers (the query layer's predicate evaluation) must treat it
// as read-only.
func (i *Instance) Attrs() map[string]any { return i.attrs }

// IndexHook observes object mutations so a secondary-index layer can
// maintain its structures inside the same transaction. rid is the record's
// location after the mutation (the pre-delete location for OnDelete). An
// error fails the object operation. Indexed reports whether any index
// covers the class: when none does, update and delete skip decoding the
// before-image's attributes and the hook is not called.
type IndexHook interface {
	Indexed(class string) bool
	OnCreate(tx *txn.Txn, class string, oid event.OID, rid storage.RID, attrs map[string]any) error
	OnUpdate(tx *txn.Txn, class string, oid event.OID, rid storage.RID, oldAttrs, newAttrs map[string]any) error
	OnDelete(tx *txn.Txn, class string, oid event.OID, rid storage.RID, attrs map[string]any) error
}

// objRef is one OID-directory entry: where the object's record lives and
// what class it is (the class lock a Delete takes before reading it).
type objRef struct {
	rid   storage.RID
	class string
}

// oidMove records a relocation for abort-undo of the directory.
type oidMove struct {
	oid      uint64
	from, to storage.RID
}

// oidAlloc hands out OIDs (persist.go): next is the next OID to hand out
// and end the first one past the durably reserved block, both zero until
// the catalog is open for writes. mu serializes reservations and guards
// the rest: the reservation record's location and floor, the least OID the
// counter may (re)start at.
type oidAlloc struct {
	next  atomic.Uint64
	end   atomic.Uint64
	mu    sync.Mutex
	rid   storage.RID
	has   bool
	floor uint64
}

// graveRef is a location an object left — deleted from it, or moved away
// by a relocating update (moved) — by a commit stamped ts, awaiting the
// snapshot floor before the directory forgets it. A moved object may come
// back to the RID it left, so forgetting a move's grave never touches the
// object's entry, only its past.
type graveRef struct {
	oid   uint64
	rid   storage.RID
	ts    uint64
	moved bool
}

// catDirty is one transaction's optimistic catalog changes, undone on
// abort and resolved (parent-merge or graveyard) on commit.
type catDirty struct {
	adds  []uint64
	moves []oidMove
	dels  []graveRef
}

// Registry is the class registry plus persistence and name managers. A
// registry without a store keeps objects in memory only (useful for
// examples and tests); with a store, every object operation must run
// inside a transaction and is durable.
type Registry struct {
	mu      sync.Mutex
	classes map[string]*Class
	det     *detector.Detector
	store   *storage.Store

	// OID directory (see persist.go): oidMu guards dir, past and grave;
	// catMu guards the per-transaction dirty sets. Lock order: catMu and
	// oidMu are leaves, never held together with r.mu or each other.
	oidMu    sync.RWMutex
	dir      map[uint64]objRef        // OID -> where its record is
	past     map[uint64][]storage.RID // OID -> where it was before moving, oldest first
	grave    []graveRef
	catMu    sync.Mutex
	catDirty map[uint64]*catDirty
	opCount  atomic.Uint64
	hook     atomic.Pointer[IndexHook]
	oids     oidAlloc

	// memory-mode state (no store)
	memObjects map[event.OID]*Instance
	memNames   map[string]event.OID
	memNextOID event.OID
}

// NewRegistry creates a registry. det may be nil (no event signalling);
// store may be nil (in-memory objects).
func NewRegistry(det *detector.Detector, store *storage.Store) *Registry {
	r := &Registry{
		classes:    make(map[string]*Class),
		det:        det,
		store:      store,
		dir:        make(map[uint64]objRef),
		past:       make(map[uint64][]storage.RID),
		catDirty:   make(map[uint64]*catDirty),
		memObjects: make(map[event.OID]*Instance),
		memNames:   make(map[string]event.OID),
	}
	r.oids.floor = 1 // OIDs start at 1
	return r
}

// SetIndexHook installs (or clears, with nil) the secondary-index
// maintenance hook invoked from New/persist/Delete.
func (r *Registry) SetIndexHook(h IndexHook) {
	if h == nil {
		r.hook.Store(nil)
		return
	}
	r.hook.Store(&h)
}

// indexHook returns the hook when an index covers the class, else nil.
func (r *Registry) indexHook(class string) IndexHook {
	if p := r.hook.Load(); p != nil && (*p).Indexed(class) {
		return *p
	}
	return nil
}

// DefineClass registers a class. super may be "" for a root class.
// Reactive classes signal method events to the detector.
func (r *Registry) DefineClass(name, super string, reactive bool) (*Class, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.classes[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateClass, name)
	}
	if super != "" {
		if _, ok := r.classes[super]; !ok {
			return nil, fmt.Errorf("%w: superclass %q", ErrUnknownClass, super)
		}
	}
	c := &Class{Name: name, Super: super, Reactive: reactive, methods: make(map[string]*Method), lockName: classResource(name), file: ClassFile(name)}
	r.classes[name] = c
	if r.det != nil {
		r.det.DeclareClass(name, super)
	}
	return c, nil
}

// Class returns a registered class.
func (r *Registry) Class(name string) (*Class, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.classes[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownClass, name)
}

// resolveMethod walks the inheritance chain for the method.
func (r *Registry) resolveMethod(c *Class, name string) (*Method, *Class, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for cur := c; cur != nil; {
		if m, ok := cur.methods[name]; ok {
			return m, cur, nil
		}
		if cur.Super == "" {
			break
		}
		cur = r.classes[cur.Super]
	}
	return nil, nil, fmt.Errorf("%w: %s.%s", ErrUnknownMethod, c.Name, name)
}

// methodSignature renders the signature string the detector matches on.
// The Sentinel surface syntax uses full C++ signatures; we use
// "name(p1,p2)" built from the declared parameter names.
func methodSignature(m *Method) string {
	var b bytes.Buffer
	b.WriteString(m.Name)
	b.WriteByte('(')
	for i, p := range m.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	b.WriteByte(')')
	return b.String()
}

// Signature returns the event signature for a class method, for event
// definitions: e.g. Signature("STOCK", "set_price") == "set_price(price)".
func (r *Registry) Signature(class, method string) (string, error) {
	c, err := r.Class(class)
	if err != nil {
		return "", err
	}
	m, _, err := r.resolveMethod(c, method)
	if err != nil {
		return "", err
	}
	return m.sig, nil
}

// Invoke calls a method on an object under tx, signalling the begin- and
// end-method primitive events around the user body when the class is
// reactive (the paper's wrapper transformation, §3.2.1). Attribute
// changes made by the method are persisted before the end event is
// signalled.
func (r *Registry) Invoke(tx *txn.Txn, obj *Instance, method string, args ...any) (any, error) {
	m, _, err := r.resolveMethod(obj.Class, method)
	if err != nil {
		return nil, err
	}
	if len(args) != len(m.Params) {
		return nil, fmt.Errorf("object: %s.%s expects %d args, got %d",
			obj.Class.Name, method, len(m.Params), len(args))
	}
	// Object-level locking: mutators take what the write-back will need
	// (persist.go's lockWrite), readers the object's lock shared.
	if tx != nil {
		var err error
		if m.Mutates {
			err = lockWrite(tx, obj.Class.lockName, obj.OID)
		} else {
			err = lockObject(tx, obj.OID, lockmgr.Shared)
		}
		if err != nil {
			return nil, err
		}
	}

	// Parameter collection, the generated PARA_LIST: the OID travels as
	// the occurrence's Object field, and only atomic-valued arguments are
	// recorded (§2.3 "oid ... and other parameters which have atomic
	// values").
	var params event.ParamList
	for i, p := range m.Params {
		if event.Atomic(args[i]) {
			params = append(params, event.Param{Name: p, Value: args[i]})
		}
	}
	sig := m.sig
	// A rule's shell subtransaction has begun by now unless its lock was
	// bypassed (a condition's snapshot); if it cannot begin, the event must
	// not escape to "no transaction".
	txID := uint64(0)
	if tx != nil {
		if txID, err = tx.Materialize(); err != nil {
			return nil, err
		}
	}
	if r.det != nil && obj.Class.Reactive {
		r.det.SignalMethod(obj.Class.Name, sig, event.Begin, obj.OID, params, txID)
	}
	out, err := m.Body(&Self{obj: obj, reg: r, Txn: tx}, args)
	if err != nil {
		return nil, err
	}
	if obj.dirty {
		if err := r.persist(tx, obj); err != nil {
			return nil, err
		}
		obj.dirty = false
	}
	if r.det != nil && obj.Class.Reactive {
		r.det.SignalMethod(obj.Class.Name, sig, event.End, obj.OID, params, txID)
	}
	return out, nil
}

// classResource names a class's lock.
func classResource(class string) string { return "class:" + class }
