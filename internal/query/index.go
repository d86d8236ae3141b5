package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Secondary indexes live in the same heap as the objects they index: every
// directory posting has a persistent entry record
//
//	0xD8 | index-ID u32 BE | oid u64 BE | key-len u16 BE | key bytes
//
// inserted and deleted by the SAME transaction that mutates the base
// object. That one decision buys the whole durability story for free:
// entry writes are undone by the storage manager's CLRs on abort, redone
// by ARIES recovery after a crash, and shipped to followers as ordinary
// record traffic — the index never needs its own log, checkpoint, or
// repair pass. The leading kind byte (object.KindIndexEntry here,
// KindIndexCatalog below) tells index records from object records, so
// object-layer scans skip them and vice versa.
//
// The in-memory directories (hash map / skiplist) rebuilt from those
// records at open are OPTIMISTIC: they may briefly hold postings for
// uncommitted creates, or keep postings whose delete has committed until
// no live snapshot can still see the old object version. Probes therefore
// return a superset of candidates and every candidate is re-verified by
// loading the object under the probing transaction (MVCC visibility or
// 2PL read, embedded-OID check) and re-evaluating the predicate — a stale
// posting can only cost a skip, never a wrong row. Committed-delete
// postings are held in a graveyard stamped with the deleting commit TS
// and pruned once the store's snapshot floor passes them.
//
// The index catalog — the list of index definitions — is one record
// (0xD9 | n | def…, a def being uvarint ID | class | attr | u8 kind in the
// occurrence codec's primitives) that is the authority at boot; DDL
// additionally appends logical RecIdxCreate/RecIdxDrop log records so
// followers learn about definition changes in commit order on the
// replication stream.

const (
	entryMagic = object.KindIndexEntry
	catMagic   = object.KindIndexCatalog
	// indexCatalogLock guards the index catalog record: every DDL statement
	// rewrites it, whatever class it indexes, so DDL takes it exclusive on
	// top of its class's lock.
	indexCatalogLock = "index-catalog"
	// idxPruneEvery bounds how often a mutator consults the snapshot floor.
	idxPruneEvery = 64
)

// Errors reported by the index layer.
var (
	ErrIndexExists   = errors.New("query: index already exists")
	ErrNoIndex       = errors.New("query: no such index")
	ErrBadIndexAttr  = errors.New("query: index attribute must be non-empty")
	ErrNotPersistent = errors.New("query: indexes require a store")
)

// IndexKind selects the directory structure — and with it the predicate
// shapes the index can serve.
type IndexKind uint8

const (
	// HashIndex serves equality probes only.
	HashIndex IndexKind = iota + 1
	// OrderedIndex (skiplist) serves equality and range scans.
	OrderedIndex
)

func (k IndexKind) String() string {
	switch k {
	case HashIndex:
		return "hash"
	case OrderedIndex:
		return "ordered"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IndexDef describes one secondary index: class extent (exact class, not
// subclasses), indexed attribute, directory kind.
type IndexDef struct {
	ID    uint32
	Class string
	Attr  string
	Kind  IndexKind
}

func (d IndexDef) String() string {
	return fmt.Sprintf("%s(%s.%s)#%d", d.Kind, d.Class, d.Attr, d.ID)
}

// posting is what a directory holds for one (key, oid): the entry record's
// location (so maintenance can delete the record when the key leaves) and
// the generation the posting was added under. A posting is identified by
// its generation, not its RID: when an object is re-keyed away and back,
// the fresh entry record can reuse the old one's slot, and an abort-undo or
// graveyard prune of the old posting must not take the new one with it.
type posting struct {
	rid storage.RID
	gen uint64
}

// skipVal is the ordered directory's payload: the OID (candidate for
// re-verification) and its posting.
type skipVal struct {
	oid uint64
	posting
}

// index is one live index: definition plus its directory.
type index struct {
	def IndexDef
	gen atomic.Uint64 // last posting generation handed out

	// creator is the transaction whose CreateIndex made the index, until
	// its root commits; nil after that and for an index found at open.
	// createTS is then the commit timestamp the create is visible from (0:
	// visible to every snapshot). dropper is the transaction whose
	// DropIndex removes it, from the statement until the root's commit
	// uninstalls it. live and usableBy read them.
	creator  atomic.Pointer[txn.Txn]
	createTS atomic.Uint64
	dropper  atomic.Pointer[txn.Txn]

	hmu  sync.RWMutex
	hash map[string]map[uint64]posting // HashIndex: enc key -> oid -> posting

	ord *skiplist // OrderedIndex: enc key || oid BE -> skipVal
}

func makeIndex(def IndexDef) *index {
	ix := &index{def: def}
	if def.Kind == HashIndex {
		ix.hash = make(map[string]map[uint64]posting)
	} else {
		ix.ord = newSkiplist()
	}
	return ix
}

// usableBy reports whether tx may read through ix. Nobody may read an
// index that is not live. A locked read may otherwise: it holds its
// class's lock shared and DDL holds it exclusive, so an index it finds is
// committed or its own family's. A snapshot may only once the index's
// create is visible to it: the backfill indexed the extent as it stood at
// the create, so an older snapshot would miss every row deleted or
// re-keyed since the snapshot began. It takes the extent scan instead.
func (ix *index) usableBy(tx *txn.Txn) bool {
	if !ix.live() {
		return false
	}
	sn := tx.Snapshot()
	if sn == nil {
		return true
	}
	if c := ix.creator.Load(); c != nil {
		return c.Root() == tx.Root()
	}
	return ix.createTS.Load() <= sn.TS()
}

// live reports whether ix is read and maintained: its create has not
// aborted, and no drop of it is pending or committed. An abort sets its
// transaction's status before it releases the class lock, and runs the
// finishers that uninstall an aborted create (or clear an aborted drop)
// only after: the status is what makes either index right at once for a
// writer or reader that gets the lock in between. An aborted create's
// entry records are already undone (their slots may hold other records);
// an aborted drop's index must see every write from then on.
func (ix *index) live() bool {
	if c := ix.creator.Load(); c != nil && aborted(c) {
		return false
	}
	d := ix.dropper.Load()
	return d == nil || aborted(d)
}

// aborted reports whether t or one of its ancestors has aborted.
func aborted(t *txn.Txn) bool {
	for ; t != nil; t = t.Parent() {
		if t.Status() == txn.Aborted {
			return true
		}
	}
	return false
}

// okey is the ordered-directory key: attr key + big-endian OID, so equal
// attr values coexist and scan in OID order.
func okey(key []byte, oid uint64) []byte {
	out := make([]byte, len(key)+8)
	copy(out, key)
	binary.BigEndian.PutUint64(out[len(key):], oid)
	return out
}

// add posts (key, oid), replacing any earlier posting of the pair, and
// returns the new posting's generation.
func (ix *index) add(key []byte, oid uint64, rid storage.RID) uint64 {
	p := posting{rid: rid, gen: ix.gen.Add(1)}
	if ix.hash != nil {
		ix.hmu.Lock()
		m := ix.hash[string(key)]
		if m == nil {
			m = make(map[uint64]posting)
			ix.hash[string(key)] = m
		}
		m[oid] = p
		ix.hmu.Unlock()
		return p.gen
	}
	ix.ord.set(okey(key, oid), skipVal{oid: oid, posting: p})
	return p.gen
}

// get returns the posting for (key, oid).
func (ix *index) get(key []byte, oid uint64) (posting, bool) {
	if ix.hash != nil {
		ix.hmu.RLock()
		defer ix.hmu.RUnlock()
		p, ok := ix.hash[string(key)][oid]
		return p, ok
	}
	v, ok := ix.ord.get(okey(key, oid))
	return v.posting, ok
}

// removeIfGen drops the posting only if it is still the one added under
// gen — a transaction that re-added the same key meanwhile must not lose
// its fresh posting to an abort-undo or graveyard prune of the old one.
func (ix *index) removeIfGen(key []byte, oid uint64, gen uint64) {
	if ix.hash != nil {
		ix.hmu.Lock()
		defer ix.hmu.Unlock()
		m := ix.hash[string(key)]
		if cur, ok := m[oid]; ok && cur.gen == gen {
			delete(m, oid)
			if len(m) == 0 {
				delete(ix.hash, string(key))
			}
		}
		return
	}
	k := okey(key, oid)
	if v, ok := ix.ord.get(k); ok && v.gen == gen {
		ix.ord.del(k)
	}
}

// rangeCandidates returns the (superset) OIDs posted in [lo, hi) of the
// ordered directory, key order, deduplicated. nil bounds are open ends.
func (ix *index) rangeCandidates(lo, hi []byte) []uint64 {
	if ix.ord == nil {
		return nil
	}
	var oids []uint64
	seen := make(map[uint64]struct{})
	ix.ord.scan(lo, hi, func(_ []byte, v skipVal) bool {
		if _, dup := seen[v.oid]; !dup {
			seen[v.oid] = struct{}{}
			oids = append(oids, v.oid)
		}
		return true
	})
	return oids
}

// entries snapshots every posting (for index teardown).
func (ix *index) entries() []idxEntryRef {
	var out []idxEntryRef
	if ix.hash != nil {
		ix.hmu.RLock()
		for k, m := range ix.hash {
			for oid, p := range m {
				out = append(out, idxEntryRef{idx: ix.def.ID, key: []byte(k), oid: oid, rid: p.rid})
			}
		}
		ix.hmu.RUnlock()
		return out
	}
	ix.ord.scan(nil, nil, func(k []byte, v skipVal) bool {
		key := make([]byte, len(k)-8)
		copy(key, k[:len(k)-8])
		out = append(out, idxEntryRef{idx: ix.def.ID, key: key, oid: v.oid, rid: v.rid})
		return true
	})
	return out
}

func (ix *index) size() int {
	if ix.hash != nil {
		ix.hmu.RLock()
		defer ix.hmu.RUnlock()
		n := 0
		for _, m := range ix.hash {
			n += len(m)
		}
		return n
	}
	return ix.ord.len()
}

// prefixEnd returns the smallest byte string greater than every string
// with prefix p, or nil when p is all 0xFF (open end).
func prefixEnd(p []byte) []byte {
	out := make([]byte, len(p))
	copy(out, p)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// idxEntryRef identifies one posting and its entry record.
type idxEntryRef struct {
	idx uint32
	key []byte
	oid uint64
	rid storage.RID
	gen uint64
}

// idxDirty is one transaction's uncommitted index maintenance: postings
// added (removed again on abort) and postings whose entry record it
// deleted (moved to the graveyard on commit, forgotten on abort).
type idxDirty struct {
	adds []idxEntryRef
	dels []idxEntryRef
}

// idxGrave is a posting whose delete committed at ts, prunable once the
// snapshot floor passes it.
type idxGrave struct {
	ref idxEntryRef
	ts  uint64
}

// Manager owns the index catalog and directories, implements
// object.IndexHook for maintenance, storage apply-hook duty on followers,
// and the probe surface the planner compiles to.
type Manager struct {
	store *storage.Store
	reg   *object.Registry

	mu      sync.RWMutex
	byID    map[uint32]*index
	byClass map[string]map[string][]*index // class -> attr -> indexes
	nextID  uint32
	catRID  storage.RID
	hasCat  bool
	orphans []storage.RID // entry records with no live index, found at boot

	dirtyMu sync.Mutex
	dirty   map[uint64]*idxDirty

	graveMu sync.Mutex
	grave   []idxGrave

	opCount atomic.Uint64

	// version is the catalog version: every install or uninstall of an
	// index moves it (under mu), and a Prepared plan chosen under an older
	// one re-plans.
	version atomic.Uint64
	// iters pools the source iterators Prepared.Exists probes with, each
	// keeping its candidate buffer and decode row.
	iters sync.Pool

	// counters (exported via RegisterMetrics)
	plans        atomic.Uint64 // access paths chosen (Plan, Prepare, re-plans, Explain)
	probes       atomic.Uint64 // equality probes served
	rangeScans   atomic.Uint64 // ordered range scans served
	extentScans  atomic.Uint64 // queries that fell back to a full extent scan
	pagesScanned atomic.Uint64 // pages those scans read
	entryWrites  atomic.Uint64 // entry records inserted
	rowsDropped  atomic.Uint64 // candidates rejected by re-verification
}

// NewManager creates an index manager over the store and registry. Call
// Bootstrap before serving, and SetIndexHook(m) on the registry.
func NewManager(store *storage.Store, reg *object.Registry) *Manager {
	return &Manager{
		store:   store,
		reg:     reg,
		byID:    make(map[uint32]*index),
		byClass: make(map[string]map[string][]*index),
		dirty:   make(map[uint64]*idxDirty),
	}
}

func encodeEntry(idxID uint32, oid uint64, key []byte) []byte {
	b := make([]byte, 1+4+8+2+len(key))
	b[0] = entryMagic
	binary.BigEndian.PutUint32(b[1:], idxID)
	binary.BigEndian.PutUint64(b[5:], oid)
	binary.BigEndian.PutUint16(b[13:], uint16(len(key)))
	copy(b[15:], key)
	return b
}

func decodeEntry(data []byte) (idxID uint32, oid uint64, key []byte, ok bool) {
	if len(data) < 15 || data[0] != entryMagic {
		return 0, 0, nil, false
	}
	idxID = binary.BigEndian.Uint32(data[1:])
	oid = binary.BigEndian.Uint64(data[5:])
	n := int(binary.BigEndian.Uint16(data[13:]))
	if len(data) != 15+n {
		return 0, 0, nil, false
	}
	key = make([]byte, n)
	copy(key, data[15:])
	return idxID, oid, key, true
}

// minDef is the smallest encoded definition: one-byte ID, two empty
// strings, the kind.
const minDef = 4

func appendDef(b []byte, def IndexDef) []byte {
	b = binary.AppendUvarint(b, uint64(def.ID))
	b = event.AppendString(b, def.Class)
	b = event.AppendString(b, def.Attr)
	return append(b, byte(def.Kind))
}

func readDef(rd *event.Reader) IndexDef {
	id := rd.Uvarint()
	if id > math.MaxUint32 {
		id = 0 // rejected by the callers' ID != 0 check
	}
	return IndexDef{ID: uint32(id), Class: rd.Str(), Attr: rd.Str(), Kind: IndexKind(rd.Byte())}
}

func encodeCatalog(defs []IndexDef) []byte {
	b := binary.AppendUvarint([]byte{catMagic}, uint64(len(defs)))
	for _, def := range defs {
		b = appendDef(b, def)
	}
	return b
}

func decodeCatalog(data []byte) ([]IndexDef, bool) {
	rd := event.NewReader(data)
	if rd.Byte() != catMagic {
		return nil, false
	}
	n := rd.Uvarint()
	if n*minDef > uint64(rd.Remaining()) {
		return nil, false
	}
	defs := make([]IndexDef, n)
	for i := range defs {
		if defs[i] = readDef(rd); defs[i].ID == 0 {
			return nil, false
		}
	}
	return defs, rd.Err() == nil && rd.Remaining() == 0
}

// decodeDef decodes a RecIdxCreate/RecIdxDrop payload (one appendDef).
func decodeDef(data []byte) (IndexDef, bool) {
	rd := event.NewReader(data)
	def := readDef(rd)
	return def, rd.Err() == nil && rd.Remaining() == 0 && def.ID != 0
}

// Bootstrap rebuilds the index catalog and all directories by one pass
// over the heap's committed state (a snapshot scan, which leaves out a
// follower's in-flight writes until their commit reaches the apply hook).
// Run at open, alongside the object registry's own Bootstrap.
func (m *Manager) Bootstrap() error {
	if m.store == nil {
		return nil
	}
	var (
		defs    []IndexDef
		catRID  storage.RID
		hasCat  bool
		posts   []idxEntryRef
		maxID   uint32
		orphans []storage.RID
	)
	err := m.store.ForEachRecord(func(rid storage.RID, data []byte) error {
		if len(data) == 0 {
			return nil
		}
		switch data[0] {
		case catMagic:
			if ds, ok := decodeCatalog(data); ok {
				defs, catRID, hasCat = ds, rid, true
			}
		case entryMagic:
			if id, oid, key, ok := decodeEntry(data); ok {
				posts = append(posts, idxEntryRef{idx: id, key: key, oid: oid, rid: rid})
				if id > maxID {
					maxID = id
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	byID := make(map[uint32]*index, len(defs))
	byClass := make(map[string]map[string][]*index)
	for _, def := range defs {
		ix := makeIndex(def)
		byID[def.ID] = ix
		installByClass(byClass, ix)
		if def.ID > maxID {
			maxID = def.ID
		}
	}
	for _, p := range posts {
		if ix, ok := byID[p.idx]; ok {
			ix.add(p.key, p.oid, p.rid)
		} else {
			orphans = append(orphans, p.rid)
		}
	}
	m.mu.Lock()
	m.byID, m.byClass = byID, byClass
	m.version.Add(1)
	m.catRID, m.hasCat = catRID, hasCat
	if maxID > m.nextID {
		m.nextID = maxID
	}
	m.orphans = orphans
	m.mu.Unlock()
	return nil
}

func installByClass(byClass map[string]map[string][]*index, ix *index) {
	attrs := byClass[ix.def.Class]
	if attrs == nil {
		attrs = make(map[string][]*index)
		byClass[ix.def.Class] = attrs
	}
	attrs[ix.def.Attr] = append(attrs[ix.def.Attr], ix)
}

func uninstallByClass(byClass map[string]map[string][]*index, ix *index) {
	attrs := byClass[ix.def.Class]
	list := attrs[ix.def.Attr]
	for i, cand := range list {
		if cand == ix {
			attrs[ix.def.Attr] = append(list[:i:i], list[i+1:]...)
			break
		}
	}
	if len(attrs[ix.def.Attr]) == 0 {
		delete(attrs, ix.def.Attr)
	}
	if len(attrs) == 0 {
		delete(byClass, ix.def.Class)
	}
}

func (m *Manager) installLocked(ix *index) {
	m.byID[ix.def.ID] = ix
	installByClass(m.byClass, ix)
	m.version.Add(1)
}

func (m *Manager) uninstallLocked(ix *index) {
	delete(m.byID, ix.def.ID)
	uninstallByClass(m.byClass, ix)
	m.version.Add(1)
}

// Defs lists the live index definitions, ordered by ID.
func (m *Manager) Defs() []IndexDef {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.defsLocked()
}

// SweepOrphans deletes entry records found at boot that belong to no live
// index (a drop whose catalog update survived but whose entry deletes were
// interrupted leaves none under ARIES — this is defensive, for heaps
// written by older builds). Call in the leader's boot transaction.
func (m *Manager) SweepOrphans(tx *txn.Txn) (int, error) {
	m.mu.Lock()
	orphans := m.orphans
	m.orphans = nil
	m.mu.Unlock()
	if len(orphans) == 0 {
		return 0, nil
	}
	// Orphans belong to no live index and so to no class: the catalog lock
	// alone keeps DDL off them.
	if err := tx.Lock(indexCatalogLock, lockmgr.Exclusive); err != nil {
		return 0, err
	}
	for _, rid := range orphans {
		if err := tx.Delete(rid); err != nil {
			return 0, fmt.Errorf("query: sweep orphan %v: %w", rid, err)
		}
	}
	return len(orphans), nil
}

// dirtyFor returns (creating on first use) the transaction's index dirty
// set, registering the finisher that resolves it: parent-merge on
// subtransaction commit, graveyard on top-level commit, directory undo on
// abort.
func (m *Manager) dirtyFor(tx *txn.Txn) *idxDirty {
	id := tx.ID()
	m.dirtyMu.Lock()
	d, ok := m.dirty[id]
	if !ok {
		d = &idxDirty{}
		m.dirty[id] = d
		tx.OnFinish(func(st txn.Status) { m.finishTxn(tx, st) })
	}
	m.dirtyMu.Unlock()
	return d
}

func (m *Manager) finishTxn(tx *txn.Txn, st txn.Status) {
	id := tx.ID()
	m.dirtyMu.Lock()
	d := m.dirty[id]
	delete(m.dirty, id)
	m.dirtyMu.Unlock()
	if d == nil {
		return
	}
	if st != txn.Committed {
		// Abort: the storage layer undoes the entry records; mirror that in
		// the directories. Deletes pend until commit, so they just drop.
		for i := len(d.adds) - 1; i >= 0; i-- {
			ref := d.adds[i]
			if ix := m.indexByID(ref.idx); ix != nil {
				ix.removeIfGen(ref.key, ref.oid, ref.gen)
			}
		}
		return
	}
	if parent := tx.Parent(); parent != nil {
		pd := m.dirtyFor(parent)
		m.dirtyMu.Lock()
		pd.adds = append(pd.adds, d.adds...)
		pd.dels = append(pd.dels, d.dels...)
		m.dirtyMu.Unlock()
		return
	}
	// Top-level commit: added postings are simply live now; deleted ones
	// stay visible to older snapshots until the floor passes this commit.
	if len(d.dels) > 0 {
		ts := m.store.CommitTS()
		m.graveMu.Lock()
		for _, ref := range d.dels {
			m.grave = append(m.grave, idxGrave{ref: ref, ts: ts})
		}
		m.graveMu.Unlock()
	}
}

func (m *Manager) indexByID(id uint32) *index {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.byID[id]
}

// pruneGraves drops committed-delete postings no live snapshot can need.
func (m *Manager) pruneGraves() {
	floor := m.store.SnapshotFloor()
	m.graveMu.Lock()
	keep := m.grave[:0]
	var prune []idxGrave
	for _, g := range m.grave {
		if g.ts <= floor {
			prune = append(prune, g)
		} else {
			keep = append(keep, g)
		}
	}
	m.grave = keep
	m.graveMu.Unlock()
	for _, g := range prune {
		if ix := m.indexByID(g.ref.idx); ix != nil {
			ix.removeIfGen(g.ref.key, g.ref.oid, g.ref.gen)
		}
	}
}

func (m *Manager) maybePrune() {
	if n := m.opCount.Add(1); n%idxPruneEvery == 0 {
		m.pruneGraves()
	}
}

// indexesFor returns the live indexes over any attribute of class.
func (m *Manager) indexesFor(class string) []*index {
	m.mu.RLock()
	defer m.mu.RUnlock()
	attrs := m.byClass[class]
	if len(attrs) == 0 {
		return nil
	}
	n := 0
	for _, list := range attrs {
		n += len(list)
	}
	out := make([]*index, 0, n)
	for _, list := range attrs {
		for _, ix := range list {
			if ix.live() {
				out = append(out, ix)
			}
		}
	}
	return out
}

// lookupIndex finds a live index on class.attr, preferring kinds in the
// order given (first match wins).
func (m *Manager) lookupIndex(class, attr string, kinds ...IndexKind) *index {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return findIndexLocked(m.byClass[class][attr], kinds...)
}

// findIndexLocked is lookupIndex over one attribute's list; the caller
// holds mu.
func findIndexLocked(list []*index, kinds ...IndexKind) *index {
	for _, k := range kinds {
		for _, ix := range list {
			if ix.def.Kind == k && ix.live() {
				return ix
			}
		}
	}
	return nil
}

// writeEntry inserts one entry record and posts it, tracking it in the
// transaction's dirty set.
func (m *Manager) writeEntry(tx *txn.Txn, d *idxDirty, ix *index, oid uint64, key []byte) error {
	rid, err := tx.Insert(object.IndexFile(ix.def.ID), encodeEntry(ix.def.ID, oid, key))
	if err != nil {
		return err
	}
	gen := ix.add(key, oid, rid)
	d.adds = append(d.adds, idxEntryRef{idx: ix.def.ID, key: key, oid: oid, rid: rid, gen: gen})
	m.entryWrites.Add(1)
	return nil
}

// dropEntry deletes the posting's entry record; the posting itself stays
// until the commit's graveyard resolution so older snapshots keep seeing
// the old value.
func (m *Manager) dropEntry(tx *txn.Txn, d *idxDirty, ix *index, oid uint64, key []byte) error {
	p, ok := ix.get(key, oid)
	if !ok {
		return nil // value was unindexable or posting already superseded
	}
	if err := tx.Delete(p.rid); err != nil {
		return err
	}
	d.dels = append(d.dels, idxEntryRef{idx: ix.def.ID, key: key, oid: oid, rid: p.rid, gen: p.gen})
	return nil
}

// Indexed implements object.IndexHook.
func (m *Manager) Indexed(class string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byClass[class]) > 0
}

// OnCreate implements object.IndexHook: post the new object under every
// index of its class. Runs under the caller's exclusive object lock and
// intent-exclusive class lock, so no DDL on the class is in flight.
func (m *Manager) OnCreate(tx *txn.Txn, class string, oid event.OID, rid storage.RID, attrs map[string]any) error {
	ixs := m.indexesFor(class)
	if len(ixs) == 0 {
		return nil
	}
	d := m.dirtyFor(tx)
	for _, ix := range ixs {
		key, ok := encodeKey(attrs[ix.def.Attr])
		if !ok {
			continue // unindexable value: the extent fallback still finds it
		}
		if err := m.writeEntry(tx, d, ix, uint64(oid), key); err != nil {
			return err
		}
	}
	m.maybePrune()
	return nil
}

// OnUpdate implements object.IndexHook: re-key postings whose indexed
// attribute changed.
func (m *Manager) OnUpdate(tx *txn.Txn, class string, oid event.OID, rid storage.RID, oldAttrs, newAttrs map[string]any) error {
	ixs := m.indexesFor(class)
	if len(ixs) == 0 {
		return nil
	}
	d := m.dirtyFor(tx)
	for _, ix := range ixs {
		oldKey, okOld := encodeKey(oldAttrs[ix.def.Attr])
		newKey, okNew := encodeKey(newAttrs[ix.def.Attr])
		if okOld && okNew && bytes.Equal(oldKey, newKey) {
			continue
		}
		if okOld {
			if err := m.dropEntry(tx, d, ix, uint64(oid), oldKey); err != nil {
				return err
			}
		}
		if okNew {
			if err := m.writeEntry(tx, d, ix, uint64(oid), newKey); err != nil {
				return err
			}
		}
	}
	m.maybePrune()
	return nil
}

// OnDelete implements object.IndexHook: drop the object's postings.
func (m *Manager) OnDelete(tx *txn.Txn, class string, oid event.OID, rid storage.RID, attrs map[string]any) error {
	ixs := m.indexesFor(class)
	if len(ixs) == 0 {
		return nil
	}
	d := m.dirtyFor(tx)
	for _, ix := range ixs {
		key, ok := encodeKey(attrs[ix.def.Attr])
		if !ok {
			continue
		}
		if err := m.dropEntry(tx, d, ix, uint64(oid), key); err != nil {
			return err
		}
	}
	m.maybePrune()
	return nil
}

// CreateIndex defines an index on class.attr and backfills it from the
// extent, all inside tx: the definition, the logical RecIdxCreate record,
// the catalog update and every backfill entry commit or abort atomically.
// The exclusive class lock serializes the backfill against the class's
// writers (lockDDL).
func (m *Manager) CreateIndex(tx *txn.Txn, class, attr string, kind IndexKind) (IndexDef, error) {
	if m.store == nil {
		return IndexDef{}, ErrNotPersistent
	}
	if attr == "" || len(attr) > event.MaxString {
		return IndexDef{}, ErrBadIndexAttr
	}
	if kind != HashIndex && kind != OrderedIndex {
		return IndexDef{}, fmt.Errorf("query: unknown index kind %d", kind)
	}
	if _, err := m.reg.Class(class); err != nil {
		return IndexDef{}, err
	}
	if err := m.lockDDL(tx, class); err != nil {
		return IndexDef{}, err
	}
	m.mu.Lock()
	if ix := findIndexLocked(m.byClass[class][attr], kind); ix != nil {
		m.mu.Unlock()
		return IndexDef{}, fmt.Errorf("%w: %s", ErrIndexExists, ix.def)
	}
	m.nextID++
	def := IndexDef{ID: m.nextID, Class: class, Attr: attr, Kind: kind}
	ix := makeIndex(def)
	ix.creator.Store(tx)
	m.installLocked(ix)
	defs := m.defsLocked()
	m.mu.Unlock()

	onAbortChain(tx, func() {
		m.mu.Lock()
		m.uninstallLocked(ix)
		m.mu.Unlock()
	})
	// The clock read after the root's commit is at or past its commit
	// timestamp: a snapshot between the two takes the extent scan, which
	// is only slower.
	tx.Root().OnFinish(func(st txn.Status) {
		if st == txn.Committed {
			ix.createTS.Store(m.store.CommitTS())
			ix.creator.Store(nil)
		}
	})

	if err := m.store.LogIndexOp(tx.ID(), storage.RecIdxCreate, appendDef(nil, def)); err != nil {
		return IndexDef{}, err
	}
	if err := m.writeCatalog(tx, defs); err != nil {
		return IndexDef{}, err
	}

	// Backfill the extent under the same transaction.
	d := m.dirtyFor(tx)
	var ferr error
	err := m.reg.ForEach(tx, class, false, func(inst *object.Instance) bool {
		key, ok := encodeKey(inst.Attrs()[attr])
		if !ok {
			return true
		}
		if ferr = m.writeEntry(tx, d, ix, uint64(inst.OID), key); ferr != nil {
			return false
		}
		return true
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return IndexDef{}, fmt.Errorf("query: backfill %s: %w", def, err)
	}
	return def, nil
}

// DropIndex removes the index on class.attr of the given kind: catalog
// update, RecIdxDrop record, and deletion of every entry record, in tx.
func (m *Manager) DropIndex(tx *txn.Txn, class, attr string, kind IndexKind) error {
	if m.store == nil {
		return ErrNotPersistent
	}
	if err := m.lockDDL(tx, class); err != nil {
		return err
	}
	m.mu.Lock()
	ix := findIndexLocked(m.byClass[class][attr], kind)
	if ix == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s(%s.%s)", ErrNoIndex, kind, class, attr)
	}
	// The index stays installed, dead to every reader and writer (live),
	// until the root's commit uninstalls it; an abort makes it live again
	// before the class lock is released.
	ix.dropper.Store(tx)
	m.version.Add(1)
	defs := m.defsLocked()
	m.mu.Unlock()

	onAbortChain(tx, func() {
		m.mu.Lock()
		ix.dropper.CompareAndSwap(tx, nil)
		m.version.Add(1)
		m.mu.Unlock()
	})
	tx.Root().OnFinish(func(st txn.Status) {
		if st == txn.Committed && ix.dropper.Load() == tx && !aborted(tx) {
			m.mu.Lock()
			m.uninstallLocked(ix)
			m.mu.Unlock()
		}
	})

	if err := m.store.LogIndexOp(tx.ID(), storage.RecIdxDrop, appendDef(nil, ix.def)); err != nil {
		return err
	}
	if err := m.writeCatalog(tx, defs); err != nil {
		return err
	}
	for _, ref := range ix.entries() {
		// A posting can outlive its entry record: a committed re-key or
		// delete keeps it for older snapshots after the record is gone, and
		// the slot may hold another record since. Delete only a record that
		// is still this posting's entry.
		data, err := tx.Read(ref.rid)
		if errors.Is(err, storage.ErrSlotDeleted) || errors.Is(err, storage.ErrBadSlot) {
			continue
		}
		if err != nil {
			return fmt.Errorf("query: drop %s: %w", ix.def, err)
		}
		if id, oid, key, ok := decodeEntry(data); !ok || id != ix.def.ID || oid != ref.oid || !bytes.Equal(key, ref.key) {
			continue
		}
		if err := tx.Delete(ref.rid); err != nil {
			return fmt.Errorf("query: drop %s: %w", ix.def, err)
		}
	}
	return nil
}

// lockDDL takes what an index DDL statement on class needs: the class's
// lock exclusive — writers of the class hold it intent-exclusive and
// locked scans shared, so the backfill or teardown sees a still extent, no
// writer maintains a half-built index and no locked query reads one —
// then the index catalog's.
func (m *Manager) lockDDL(tx *txn.Txn, class string) error {
	if err := m.reg.LockExtent(tx, class, false, lockmgr.Exclusive); err != nil {
		return err
	}
	return tx.Lock(indexCatalogLock, lockmgr.Exclusive)
}

func (m *Manager) defsLocked() []IndexDef {
	out := make([]IndexDef, 0, len(m.byID))
	for _, ix := range m.byID {
		if ix.live() {
			out = append(out, ix.def)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeCatalog persists the definition list, tracking the catalog
// record's location across relocations and aborts.
func (m *Manager) writeCatalog(tx *txn.Txn, defs []IndexDef) error {
	data := encodeCatalog(defs)
	m.mu.Lock()
	prevRID, prevHas := m.catRID, m.hasCat
	m.mu.Unlock()
	var (
		newRID storage.RID
		err    error
	)
	if prevHas {
		newRID, err = tx.Update(prevRID, data)
	} else {
		newRID, err = tx.Insert(object.CatalogFile, data)
	}
	if err != nil {
		return err
	}
	if newRID != prevRID || !prevHas {
		m.mu.Lock()
		m.catRID, m.hasCat = newRID, true
		m.mu.Unlock()
		onAbortChain(tx, func() {
			m.mu.Lock()
			m.catRID, m.hasCat = prevRID, prevHas
			m.mu.Unlock()
		})
	}
	return nil
}

// onAbortChain runs fn exactly once if tx or ANY of its ancestors aborts —
// a subtransaction's effects only stick if the whole chain up to the root
// commits, so in-memory DDL state must unwind on the first abort anywhere
// along it. Finishers within one transaction run newest-first, so nested
// DDL undo unwinds in reverse order of the changes.
func onAbortChain(tx *txn.Txn, fn func()) {
	var once sync.Once
	for t := tx; t != nil; t = t.Parent() {
		t.OnFinish(func(st txn.Status) {
			if st != txn.Committed {
				once.Do(fn)
			}
		})
	}
}

// ApplyRecord is the storage apply hook on followers: it mirrors committed
// record traffic into the definitions and directories. Called serially,
// in LSN order, when a transaction's commit record arrives.
func (m *Manager) ApplyRecord(rec *storage.LogRecord) {
	switch rec.Type {
	case storage.RecInsert, storage.RecUpdate:
		m.applyUpsert(rec.After, rec.RID)
	case storage.RecDelete:
		if len(rec.Before) == 0 || rec.Before[0] != entryMagic {
			return
		}
		id, oid, key, ok := decodeEntry(rec.Before)
		if !ok {
			return
		}
		ix := m.indexByID(id)
		if ix == nil {
			return
		}
		p, ok := ix.get(key, oid)
		if !ok || p.rid != rec.RID {
			return // posting already superseded by a later record
		}
		m.graveMu.Lock()
		m.grave = append(m.grave, idxGrave{ref: idxEntryRef{idx: id, key: key, oid: oid, rid: rec.RID, gen: p.gen}, ts: rec.TS})
		m.graveMu.Unlock()
		m.maybePrune()
	case storage.RecIdxCreate:
		if def, ok := decodeDef(rec.After); ok {
			m.mu.Lock()
			if old := m.byID[def.ID]; old != nil {
				m.uninstallLocked(old)
			}
			ix := makeIndex(def)
			ix.createTS.Store(rec.TS)
			m.installLocked(ix)
			if def.ID > m.nextID {
				m.nextID = def.ID
			}
			m.mu.Unlock()
		}
	case storage.RecIdxDrop:
		if def, ok := decodeDef(rec.After); ok {
			m.mu.Lock()
			if ix := m.byID[def.ID]; ix != nil {
				m.uninstallLocked(ix)
			}
			m.mu.Unlock()
		}
	}
}

func (m *Manager) applyUpsert(data []byte, rid storage.RID) {
	if len(data) == 0 {
		return
	}
	switch data[0] {
	case entryMagic:
		if id, oid, key, ok := decodeEntry(data); ok {
			if ix := m.indexByID(id); ix != nil {
				ix.add(key, oid, rid)
			}
		}
	case catMagic:
		m.mu.Lock()
		m.catRID, m.hasCat = rid, true
		m.mu.Unlock()
	}
}

// Stats reports probe/scan/maintenance counters (tests, debugz).
func (m *Manager) Stats() (probes, rangeScans, extentScans, entryWrites, rowsDropped uint64) {
	return m.probes.Load(), m.rangeScans.Load(), m.extentScans.Load(),
		m.entryWrites.Load(), m.rowsDropped.Load()
}

// RegisterMetrics wires the query engine into a metrics registry.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sentinel_query_plans_compiled_total",
		"Access paths chosen: one per query planned or explained, one per prepared condition and per re-plan after index DDL; none per rule firing.", m.plans.Load)
	r.CounterFunc("sentinel_query_index_probes_total",
		"Equality probes served from an index directory.", m.probes.Load)
	r.CounterFunc("sentinel_query_index_range_scans_total",
		"Range scans served from an ordered index.", m.rangeScans.Load)
	r.CounterFunc("sentinel_query_extent_scans_total",
		"Queries answered by a full extent scan (no usable index).", m.extentScans.Load)
	r.CounterFunc("sentinel_query_pages_scanned_total",
		"Pages extent scans read: each page of the class's file once per scan.", m.pagesScanned.Load)
	r.CounterFunc("sentinel_query_index_entries_written_total",
		"Index entry records inserted (create, update re-key, backfill).", m.entryWrites.Load)
	r.CounterFunc("sentinel_query_reverify_drops_total",
		"Index candidates rejected by load-time re-verification.", m.rowsDropped.Load)
	r.GaugeFunc("sentinel_query_indexes",
		"Live secondary indexes.", func() float64 {
			m.mu.RLock()
			defer m.mu.RUnlock()
			n := 0
			for _, ix := range m.byID {
				if ix.live() {
					n++
				}
			}
			return float64(n)
		})
	r.GaugeFunc("sentinel_query_index_postings",
		"Directory postings across all indexes.", func() float64 {
			m.mu.RLock()
			ixs := make([]*index, 0, len(m.byID))
			for _, ix := range m.byID {
				ixs = append(ixs, ix)
			}
			m.mu.RUnlock()
			n := 0
			for _, ix := range ixs {
				n += ix.size()
			}
			return float64(n)
		})
	r.GaugeFunc("sentinel_query_index_graveyard",
		"Committed-delete postings awaiting the snapshot floor.", func() float64 {
			m.graveMu.Lock()
			defer m.graveMu.Unlock()
			return float64(len(m.grave))
		})
}
