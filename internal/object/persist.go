package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/storage"
	"repro/internal/txn"
)

// The persistence manager keeps a small catalog in the storage manager:
//
//   - a fixed-location meta record (the first record ever inserted, page 0
//     slot 0) holding the RID of the name map (and, in directories written
//     before OID blocks, the OID counter); it is fixed-size so updates never
//     relocate it;
//   - the name map (the Open OODB name manager), one record holding
//     name -> OID (record.go);
//   - the OID reservation record (KindOIDs), holding the end of the last
//     block of OIDs reserved for New;
//   - and, since every object record now embeds its own OID, an in-memory
//     OID -> RID directory rebuilt by scanning the heap at open and
//     maintained incrementally afterwards.
//
// The directory replaces the old whole-map OID->RID blob that was re-
// encoded on every New/Delete (O(extent) per object write). Directory
// entries are optimistic — they may point at uncommitted or since-deleted
// records — and every read validates through the store (snapshot
// visibility or 2PL read) plus the decoded record's embedded OID, so a
// stale entry can only cost a skip, never a wrong result. Entries added by
// a transaction are removed again if it aborts (per-txn dirty sets, merged
// parent-ward on subtransaction commit); entries whose delete committed
// are kept until no live snapshot can still see the object, then pruned
// via a small graveyard keyed to the store's snapshot floor.
//
// Isolation comes from per-object locks (DESIGN.md §10): Load takes the
// object's lock shared; New, Persist and Delete take it exclusive and,
// before it, their class's lock intent-exclusive — so writers of different
// objects run side by side, while a locked extent scan (class lock shared)
// or index DDL (exclusive) waits them out and sees no phantoms. The name
// map has a lock of its own. Snapshot transactions bypass locks entirely
// and rely on MVCC validation; they never build a lock name.
//
// OIDs come from an atomic counter. The counter never hands out an OID
// above the durable reservation: when it reaches the end of the reserved
// block, the next block's end is written to the reservation record in a
// storage-level transaction of its own (no lock, no events) and forced
// before the OID is used. Open and Promote restart the counter at
// max(reservation end, highest OID on the heap + 1), so an OID is never
// handed out twice — not even one whose object was deleted before a
// restart or a failover.

const (
	metaMagic = "SENTOBJ1"
	metaSize  = 8 + 8 + 8 // magic + legacy OID counter + nameRID
	// namesLock is the name map's resource: Bind and Unbind take it
	// exclusive, Resolve shared. Object writers never touch it.
	namesLock = "names"
	// oidBlock is how many OIDs one durable reservation covers.
	oidBlock = 1024
	oidsSize = 1 + 8 // KindOIDs + end
	// gravePruneEvery bounds how often a mutator consults the snapshot
	// floor to prune committed-delete refs.
	gravePruneEvery = 64
)

var metaRID = storage.RID{Page: 0, Slot: 0}

// objResource names an object's lock.
func objResource(oid uint64) string {
	var b [24]byte
	return string(strconv.AppendUint(append(b[:0], "obj:"...), oid, 10))
}

// lockObject takes oid's lock. Under a snapshot the request is a counted
// bypass that never builds the name.
func lockObject(tx *txn.Txn, oid event.OID, mode lockmgr.Mode) error {
	return tx.LockOf(objResource, uint64(oid), mode)
}

func encodeRID(b []byte, rid storage.RID) {
	binary.LittleEndian.PutUint32(b, uint32(rid.Page))
	binary.LittleEndian.PutUint16(b[4:], rid.Slot)
}

func decodeRID(b []byte) storage.RID {
	return storage.RID{
		Page: storage.PageID(binary.LittleEndian.Uint32(b)),
		Slot: binary.LittleEndian.Uint16(b[4:]),
	}
}

// meta is the catalog meta record. nextOID is the OID counter of
// directories written before OID blocks; it is never written again and
// serves as a floor for the counter at open.
type meta struct {
	nextOID uint64
	nameRID storage.RID
}

func (m meta) encode() []byte {
	b := make([]byte, metaSize)
	copy(b, metaMagic)
	binary.LittleEndian.PutUint64(b[8:], m.nextOID)
	encodeRID(b[16:], m.nameRID)
	return b
}

func decodeMeta(b []byte) (meta, error) {
	if len(b) != metaSize || string(b[:8]) != metaMagic {
		return meta{}, fmt.Errorf("object: record %v is not the catalog meta", metaRID)
	}
	return meta{nextOID: binary.LittleEndian.Uint64(b[8:]), nameRID: decodeRID(b[16:])}, nil
}

func encodeOIDs(end uint64) []byte {
	b := make([]byte, oidsSize)
	b[0] = KindOIDs
	binary.LittleEndian.PutUint64(b[1:], end)
	return b
}

func decodeOIDs(b []byte) (end uint64, ok bool) {
	if len(b) != oidsSize || b[0] != KindOIDs {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[1:]), true
}

// InitCatalog creates the persistence catalog on a fresh store or
// validates it on an existing one, and opens the OID counter. It must run
// (in its own transaction) before any objects are created and before any
// other record is inserted into a fresh store.
func (r *Registry) InitCatalog(tx *txn.Txn) error {
	if r.store == nil {
		return ErrNotPersistent
	}
	if err := tx.Lock(namesLock, lockmgr.Exclusive); err != nil {
		return err
	}
	if data, err := tx.Read(metaRID); err == nil {
		if _, derr := decodeMeta(data); derr != nil {
			return derr
		}
		// Existing catalog: rebuild the OID directory from the heap's
		// (post-recovery, all-committed) latest state.
		if err := r.Bootstrap(); err != nil {
			return err
		}
		r.ResumeOIDs()
		return nil
	}
	names, err := appendNames(nil, nil)
	if err != nil {
		return err
	}
	m := meta{nextOID: 1}
	rid, err := tx.Insert(m.encode())
	if err != nil {
		return err
	}
	if rid != metaRID {
		return fmt.Errorf("object: catalog meta landed at %v, want %v (store not fresh)", rid, metaRID)
	}
	if m.nameRID, err = tx.Insert(names); err != nil {
		return err
	}
	if _, err = tx.Update(metaRID, m.encode()); err != nil {
		return err
	}
	r.ResumeOIDs()
	return nil
}

// Bootstrap rebuilds the in-memory OID directory by one pass over the
// heap's latest state, and with it the OID counter's floor: the
// reservation end, the highest OID on the heap + 1 and the legacy meta
// counter, whichever is largest. It runs at open — after recovery (leader)
// or over the resolved prefix (follower), when everything live on the
// pages is committed — and before the registry serves requests.
func (r *Registry) Bootstrap() error {
	if r.store == nil {
		return nil
	}
	dir := newOIDDirectory()
	var floor uint64
	var oidsRID storage.RID
	hasOIDs := false
	err := r.store.ForEachRecordLatest(func(rid storage.RID, data []byte) error {
		if oid, class, ok := readHeader(event.NewReader(data)); ok {
			dir.set(oid, objRef{rid: rid, class: r.className(class)})
			floor = max(floor, oid+1)
		} else if end, ok := decodeOIDs(data); ok {
			floor = max(floor, end)
			oidsRID, hasOIDs = rid, true
		} else if rid == metaRID {
			if m, err := decodeMeta(data); err == nil {
				floor = max(floor, m.nextOID)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.oidMu.Lock()
	r.dir = dir
	r.oidMu.Unlock()
	r.oids.mu.Lock()
	r.oids.floor = max(r.oids.floor, floor)
	r.oids.rid, r.oids.has = oidsRID, hasOIDs
	r.oids.mu.Unlock()
	return nil
}

// ResumeOIDs opens the OID counter for New at the floor Bootstrap (and, on
// a follower, the applied record stream) established. Nothing is reserved
// yet: the first New writes a fresh block. The facade calls it after a
// follower's Promote; InitCatalog calls it at open.
func (r *Registry) ResumeOIDs() {
	r.oids.mu.Lock()
	defer r.oids.mu.Unlock()
	r.oids.end.Store(r.oids.floor)
	r.oids.next.Store(r.oids.floor)
}

// drawOID hands out the next OID, reserving a new block first when the
// counter has reached the end of the durable one.
func (r *Registry) drawOID() (event.OID, error) {
	if r.oids.end.Load() == 0 {
		return 0, errors.New("object: catalog not initialised")
	}
	oid := r.oids.next.Add(1) - 1
	if oid >= r.oids.end.Load() {
		if err := r.reserveOIDs(oid); err != nil {
			return 0, err
		}
	}
	return event.OID(oid), nil
}

// reserveOIDs makes every OID up to and including oid durable-reserved: it
// writes the end of a block starting at oid to the reservation record in a
// storage-level transaction of its own and waits for its commit to be
// forced. It takes no lock and signals no event, so it neither conflicts
// with nor is rolled back by the transaction that drew the OID.
func (r *Registry) reserveOIDs(oid uint64) error {
	r.oids.mu.Lock()
	defer r.oids.mu.Unlock()
	if oid < r.oids.end.Load() {
		return nil // a concurrent draw reserved it
	}
	end := oid + oidBlock
	id, err := r.store.Begin()
	if err != nil {
		return err
	}
	rid := r.oids.rid
	if r.oids.has {
		rid, err = r.store.Update(id, rid, encodeOIDs(end))
	} else {
		rid, err = r.store.Insert(id, encodeOIDs(end))
	}
	if err == nil {
		err = r.store.Commit(id)
	}
	if err != nil {
		_ = r.store.Abort(id)
		return fmt.Errorf("object: reserve OIDs below %d: %w", end, err)
	}
	r.oids.rid, r.oids.has = rid, true
	r.oids.floor = end
	r.oids.end.Store(end)
	return nil
}

func (r *Registry) readMeta(tx *txn.Txn) (meta, error) {
	data, err := tx.Read(metaRID)
	if err != nil {
		return meta{}, fmt.Errorf("object: catalog not initialised: %w", err)
	}
	return decodeMeta(data)
}

func (r *Registry) readNames(tx *txn.Txn, m meta) (map[string]uint64, error) {
	data, err := tx.Read(m.nameRID)
	if err != nil {
		return nil, err
	}
	return decodeNames(data)
}

func (r *Registry) writeNames(tx *txn.Txn, m meta, names map[string]uint64) error {
	data, err := appendNames(nil, names)
	if err != nil {
		return err
	}
	newRID, err := tx.Update(m.nameRID, data)
	if err != nil {
		return err
	}
	if newRID != m.nameRID {
		m.nameRID = newRID
		if _, err := tx.Update(metaRID, m.encode()); err != nil {
			return err
		}
	}
	return nil
}

// dirtyFor returns (creating on first use) the per-transaction catalog
// dirty set, registering the finisher that resolves it. Each transaction
// handle — subtransactions included — gets its own set; a sub's set merges
// into its parent's on commit, mirroring the storage-level op merge.
func (r *Registry) dirtyFor(tx *txn.Txn) *catDirty {
	id := tx.ID()
	r.catMu.Lock()
	d := r.catDirty[id]
	if d == nil {
		d = &catDirty{}
		r.catDirty[id] = d
		r.catMu.Unlock()
		tx.OnFinish(func(st txn.Status) { r.finishCat(tx, st) })
		return d
	}
	r.catMu.Unlock()
	return d
}

func (r *Registry) finishCat(tx *txn.Txn, st txn.Status) {
	r.catMu.Lock()
	d := r.catDirty[tx.ID()]
	delete(r.catDirty, tx.ID())
	r.catMu.Unlock()
	if d == nil {
		return
	}
	if st == txn.Committed {
		if p := tx.Parent(); p != nil {
			pd := r.dirtyFor(p)
			r.catMu.Lock()
			pd.adds = append(pd.adds, d.adds...)
			pd.moves = append(pd.moves, d.moves...)
			pd.dels = append(pd.dels, d.dels...)
			r.catMu.Unlock()
			return
		}
		if len(d.dels) > 0 {
			// Stamp with the commit clock after the commit: at or above the
			// deleting transaction's commit timestamp, so pruning at the
			// snapshot floor is conservative-safe.
			ts := r.store.CommitTS()
			r.oidMu.Lock()
			for _, g := range d.dels {
				g.ts = ts
				r.grave = append(r.grave, g)
			}
			r.oidMu.Unlock()
		}
		return
	}
	// Abort: take back this transaction's optimistic directory changes, in
	// reverse order so chained moves restore the oldest RID. Deleted refs
	// were never removed, so there is nothing to restore for dels.
	r.oidMu.Lock()
	for i := len(d.moves) - 1; i >= 0; i-- {
		mv := d.moves[i]
		if ref, ok := r.dir.refs[mv.oid]; ok && ref.rid == mv.to {
			ref.rid = mv.from
			r.dir.set(mv.oid, ref)
		}
	}
	for _, oid := range d.adds {
		r.dir.drop(oid)
	}
	r.oidMu.Unlock()
}

// pruneGraves removes directory entries for committed deletes no live
// snapshot can still see. Amortized: called from mutators every
// gravePruneEvery operations.
func (r *Registry) pruneGraves() {
	r.oidMu.Lock()
	if len(r.grave) == 0 {
		r.oidMu.Unlock()
		return
	}
	floor := r.store.SnapshotFloor()
	keep := r.grave[:0]
	for _, g := range r.grave {
		if g.ts > floor {
			keep = append(keep, g)
			continue
		}
		if ref, ok := r.dir.refs[g.oid]; ok && ref.rid == g.rid {
			r.dir.drop(g.oid)
		}
	}
	r.grave = keep
	r.oidMu.Unlock()
}

// New creates an object of the class with the given initial attributes and
// returns it. With a store, the object is persisted under tx; without, it
// lives in memory.
func (r *Registry) New(tx *txn.Txn, class string, attrs map[string]any) (*Instance, error) {
	c, err := r.Class(class)
	if err != nil {
		return nil, err
	}
	if attrs == nil {
		attrs = map[string]any{}
	}
	cp := make(map[string]any, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	if r.store == nil {
		r.mu.Lock()
		r.memNextOID++
		obj := &Instance{OID: r.memNextOID, Class: c, attrs: cp}
		r.memObjects[obj.OID] = obj
		r.mu.Unlock()
		return obj, nil
	}
	// Encode before drawing an OID: a value outside the atomic set fails the
	// call with nothing applied and no OID consumed.
	rec, err := appendObjectBody(make([]byte, objectHeadroom, 128), class, cp)
	if err != nil {
		return nil, err
	}
	oid, err := r.drawOID()
	if err != nil {
		return nil, err
	}
	// Nobody else knows the OID yet, but a locked reader that finds the
	// directory entry below must wait for this transaction's outcome.
	if err := lockWrite(tx, c.lockName, oid); err != nil {
		return nil, err
	}
	rid, err := tx.Insert(putObjectHeader(rec, uint64(oid)))
	if err != nil {
		return nil, err
	}
	obj := &Instance{OID: oid, Class: c, attrs: cp}
	d := r.dirtyFor(tx)
	r.oidMu.Lock()
	r.dir.set(uint64(oid), objRef{rid: rid, class: c.Name})
	r.oidMu.Unlock()
	r.catMu.Lock()
	d.adds = append(d.adds, uint64(oid))
	r.catMu.Unlock()
	if h := r.indexHook(class); h != nil {
		if err := h.OnCreate(tx, class, oid, rid, cp); err != nil {
			return nil, err
		}
	}
	if n := r.opCount.Add(1); n%gravePruneEvery == 0 {
		r.pruneGraves()
	}
	return obj, nil
}

// lookupRef returns the directory entry for an OID.
func (r *Registry) lookupRef(oid event.OID) (objRef, bool) {
	r.oidMu.RLock()
	ref, ok := r.dir.refs[uint64(oid)]
	r.oidMu.RUnlock()
	return ref, ok
}

// Load fetches the object with the given OID. A directory entry is only a
// hint: the record read (snapshot-visible or 2PL-latest) must decode as an
// object carrying this OID, so stale entries — an uncommitted create, a
// delete this snapshot is ahead of, a reused slot — report unknown rather
// than a wrong object.
func (r *Registry) Load(tx *txn.Txn, oid event.OID) (*Instance, error) {
	if r.store == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		if obj, ok := r.memObjects[oid]; ok {
			return obj, nil
		}
		return nil, fmt.Errorf("%w: %v", ErrUnknownObject, oid)
	}
	attrs, c, err := r.LoadAttrs(tx, oid, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Instance{OID: oid, Class: c, attrs: attrs}, nil
}

// LoadAttrs is Load for a reader that wants attribute values rather than
// an Instance (the query layer's scans), and it makes every check Load
// makes: the object's lock shared (or the snapshot's bypass), the
// directory entry, the record's visibility, the OID in its header, a
// registered class, strictly ordered names and the whole record consumed.
// It clears row and fills it with the attributes named in want — all of
// them when want is nil — stepping over the others with the same
// validation; a nil row gets a fresh map sized to the record. want is
// meant to be short (a query's referenced attributes). It returns the
// filled map and the object's class. It needs a store.
func (r *Registry) LoadAttrs(tx *txn.Txn, oid event.OID, want []string, row map[string]any) (attrs map[string]any, c *Class, err error) {
	if r.store == nil {
		return nil, nil, ErrNotPersistent
	}
	clear(row)
	if err := lockObject(tx, oid, lockmgr.Shared); err != nil {
		return nil, nil, err
	}
	ref, ok := r.lookupRef(oid)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %v", ErrUnknownObject, oid)
	}
	// The record is decoded in place: values and names are copied out of
	// it, so nothing the decode returns aliases the page.
	var bad error
	err = tx.View(ref.rid, func(data []byte) {
		rd := event.NewReader(data)
		got, class, ok := readHeader(rd)
		if !ok || got != uint64(oid) {
			bad = fmt.Errorf("%w: %v", ErrUnknownObject, oid)
		} else if c = r.classNamed(class); c == nil {
			bad = fmt.Errorf("%w: %q", ErrUnknownClass, class)
		} else if attrs, ok = readAttrsInto(rd, &c.names, want, row); !ok {
			bad = fmt.Errorf("object: record of %v at %v is malformed", oid, ref.rid)
		}
	})
	if errors.Is(err, storage.ErrSlotDeleted) || errors.Is(err, storage.ErrBadSlot) {
		err = fmt.Errorf("%w: %v", ErrUnknownObject, oid)
	}
	if err == nil {
		err = bad
	}
	if err != nil {
		return nil, nil, err
	}
	return attrs, c, nil
}

// classNamed looks a class up by the name bytes of a record, without
// making a string of them; nil when the class is not registered.
func (r *Registry) classNamed(b []byte) *Class {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.classes[string(b)]
}

// className returns the registered class's own name string for a record's
// class bytes, so directory entries share one string per class.
func (r *Registry) className(b []byte) string {
	if c := r.classNamed(b); c != nil {
		return c.Name
	}
	return string(b)
}

// readBefore reads the record a mutation of oid is about to replace and
// validates the directory entry against its header. The attributes are
// decoded only when an index covers the class and will want them.
func (r *Registry) readBefore(tx *txn.Txn, rid storage.RID, oid event.OID, wantAttrs bool, names *nameTable) (map[string]any, error) {
	var attrs map[string]any
	var bad error
	err := tx.View(rid, func(data []byte) {
		rd := event.NewReader(data)
		if got, _, ok := readHeader(rd); !ok || got != uint64(oid) {
			bad = fmt.Errorf("%w: %v", ErrUnknownObject, oid)
		} else if wantAttrs {
			if attrs, ok = readAttrs(rd, names); !ok {
				bad = fmt.Errorf("object: record of %v at %v is malformed", oid, rid)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownObject, oid)
	}
	return attrs, bad
}

// lockWrite takes what a mutation of oid needs: its class's lock
// intent-exclusive (writers of a class do not conflict; a locked extent
// scan or index DDL, which lock the class as a whole, wait them out), then
// the object's lock exclusive. Always in that order: class, then object.
func lockWrite(tx *txn.Txn, classLock string, oid event.OID) error {
	if err := tx.Lock(classLock, lockmgr.IntentExclusive); err != nil {
		return err
	}
	return lockObject(tx, oid, lockmgr.Exclusive)
}

// Persist writes an object's current attribute state back to the store —
// the programmatic update path for callers (the facade, the query layer's
// tests) that mutate attributes without going through a reactive method.
func (r *Registry) Persist(tx *txn.Txn, obj *Instance) error {
	return r.persist(tx, obj)
}

// persist writes an object's current attribute state back to the store.
func (r *Registry) persist(tx *txn.Txn, obj *Instance) error {
	if r.store == nil {
		return nil // memory mode: attrs are already live
	}
	if tx == nil {
		return fmt.Errorf("object: persisting %v requires a transaction", obj.OID)
	}
	if err := lockWrite(tx, obj.Class.lockName, obj.OID); err != nil {
		return err
	}
	ref, ok := r.lookupRef(obj.OID)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownObject, obj.OID)
	}
	// The before-image: its header validates the directory entry, and index
	// maintenance needs the old attribute values.
	h := r.indexHook(obj.Class.Name)
	oldAttrs, err := r.readBefore(tx, ref.rid, obj.OID, h != nil, &obj.Class.names)
	if err != nil {
		return err
	}
	data, err := appendObject(nil, uint64(obj.OID), obj.Class.Name, obj.attrs)
	if err != nil {
		return err
	}
	newRID, err := tx.Update(ref.rid, data)
	if err != nil {
		return err
	}
	if newRID != ref.rid {
		d := r.dirtyFor(tx)
		r.oidMu.Lock()
		r.dir.set(uint64(obj.OID), objRef{rid: newRID, class: obj.Class.Name})
		r.oidMu.Unlock()
		r.catMu.Lock()
		d.moves = append(d.moves, oidMove{oid: uint64(obj.OID), from: ref.rid, to: newRID})
		r.catMu.Unlock()
	}
	if h != nil {
		if err := h.OnUpdate(tx, obj.Class.Name, obj.OID, newRID, oldAttrs, obj.attrs); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes an object.
func (r *Registry) Delete(tx *txn.Txn, oid event.OID) error {
	if r.store == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.memObjects[oid]; !ok {
			return fmt.Errorf("%w: %v", ErrUnknownObject, oid)
		}
		delete(r.memObjects, oid)
		return nil
	}
	// An object never changes class, so the entry names the class lock to
	// take before the object's; the entry itself is re-read under both.
	ref, ok := r.lookupRef(oid)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownObject, oid)
	}
	if err := lockWrite(tx, r.classLock(ref.class), oid); err != nil {
		return err
	}
	if ref, ok = r.lookupRef(oid); !ok {
		return fmt.Errorf("%w: %v", ErrUnknownObject, oid)
	}
	h := r.indexHook(ref.class)
	attrs, err := r.readBefore(tx, ref.rid, oid, h != nil, nil)
	if err != nil {
		return err
	}
	if err := tx.Delete(ref.rid); err != nil {
		return err
	}
	// The directory entry stays until the delete both commits and falls
	// below the snapshot floor: older snapshots still resolve this OID
	// through it. The dirty set routes it to the graveyard at top commit.
	d := r.dirtyFor(tx)
	r.catMu.Lock()
	d.dels = append(d.dels, graveRef{oid: uint64(oid), rid: ref.rid})
	r.catMu.Unlock()
	if h != nil {
		if err := h.OnDelete(tx, ref.class, oid, ref.rid, attrs); err != nil {
			return err
		}
	}
	if n := r.opCount.Add(1); n%gravePruneEvery == 0 {
		r.pruneGraves()
	}
	return nil
}

// classMatches reports whether class c (by name) is class or, when
// includeSubclasses is set, one of its subclasses.
func (r *Registry) classMatches(c, class string, includeSubclasses bool) bool {
	if c == class || !includeSubclasses {
		return c == class
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.classMatchesLocked(c, class, includeSubclasses)
}

// classMatchesLocked is classMatches for callers already holding r.mu.
func (r *Registry) classMatchesLocked(c, class string, includeSubclasses bool) bool {
	if c == class {
		return true
	}
	if !includeSubclasses {
		return false
	}
	for cur := r.classes[c]; cur != nil; {
		if cur.Name == class {
			return true
		}
		if cur.Super == "" {
			return false
		}
		cur = r.classes[cur.Super]
	}
	return false
}

// ExtentOIDs returns the OIDs the directory currently holds for a class
// (and subclasses when requested), sorted. It walks only those classes'
// member sets, so it costs what the extent costs, not the database.
// Entries are optimistic: callers must validate each by loading it under
// their transaction — Load reports unknown for entries their snapshot
// cannot see.
func (r *Registry) ExtentOIDs(class string, includeSubclasses bool) []event.OID {
	if r.store == nil {
		r.mu.Lock()
		oids := make([]event.OID, 0, len(r.memObjects))
		for oid, obj := range r.memObjects {
			if obj != nil && r.classMatchesLocked(obj.Class.Name, class, includeSubclasses) {
				oids = append(oids, oid)
			}
		}
		r.mu.Unlock()
		slices.Sort(oids)
		return oids
	}
	classes := []string{class}
	if includeSubclasses {
		r.mu.Lock()
		for name := range r.classes {
			if name != class && r.classMatchesLocked(name, class, true) {
				classes = append(classes, name)
			}
		}
		r.mu.Unlock()
	}
	r.oidMu.RLock()
	n := 0
	for _, c := range classes {
		n += len(r.dir.extents[c])
	}
	oids := make([]event.OID, 0, n)
	for _, c := range classes {
		for oid := range r.dir.extents[c] {
			oids = append(oids, event.OID(oid))
		}
	}
	r.oidMu.RUnlock()
	slices.Sort(oids)
	return oids
}

// LockExtent locks a class extent (and its subclasses' when
// includeSubclasses is set) as a whole: it takes each class's lock in
// mode. Writers hold their class's lock intent-exclusive (lockWrite), so
// either mode waits out every transaction that created, updated or
// deleted an object of the extent and holds off new ones until tx
// resolves. A locked scan takes Shared — no phantoms, and locked scans of
// one class still run side by side — and index DDL Exclusive. Under a
// snapshot the requests are counted bypasses: visibility, not locking,
// makes a snapshot scan consistent.
func (r *Registry) LockExtent(tx *txn.Txn, class string, includeSubclasses bool, mode lockmgr.Mode) error {
	if !includeSubclasses {
		return tx.Lock(r.classLock(class), mode)
	}
	r.mu.Lock()
	var locks []string
	for name, c := range r.classes {
		if r.classMatchesLocked(name, class, true) {
			locks = append(locks, c.lockName)
		}
	}
	r.mu.Unlock()
	sort.Strings(locks) // one acquisition order for every subtree scan
	for _, l := range locks {
		if err := tx.Lock(l, mode); err != nil {
			return err
		}
	}
	return nil
}

// classLock returns the lock resource of a class by name, registered or
// not (records of a class this process never defined still lock by name).
func (r *Registry) classLock(class string) string {
	if c, err := r.Class(class); err == nil {
		return c.lockName
	}
	return classResource(class)
}

// ForEach visits every object of the class (and its subclasses when
// includeSubclasses is set), in OID order — the class extent, which rule
// conditions use to query database state. fn returning false stops the
// scan. Directory entries the transaction cannot see (uncommitted creates
// of others, deletes this snapshot is past) are skipped. A locked scan
// takes the extent's class locks first (LockExtent).
func (r *Registry) ForEach(tx *txn.Txn, class string, includeSubclasses bool, fn func(*Instance) bool) error {
	if r.store == nil {
		for _, oid := range r.ExtentOIDs(class, includeSubclasses) {
			r.mu.Lock()
			obj := r.memObjects[oid]
			r.mu.Unlock()
			if obj == nil {
				continue
			}
			if !fn(obj) {
				return nil
			}
		}
		return nil
	}
	if err := r.LockExtent(tx, class, includeSubclasses, lockmgr.Shared); err != nil {
		return err
	}
	for _, oid := range r.ExtentOIDs(class, includeSubclasses) {
		obj, err := r.Load(tx, oid)
		if err != nil {
			if errors.Is(err, ErrUnknownObject) {
				continue
			}
			return err
		}
		if !r.classMatches(obj.Class.Name, class, includeSubclasses) {
			continue
		}
		if !fn(obj) {
			return nil
		}
	}
	return nil
}

// ApplyRecord is the follower-side directory maintenance hook: the store
// invokes it (through the facade's mux) for every operation a replicated
// transaction applied, in LSN order. Only object records matter here, and
// only their header (OID, class), plus the OID reservation record; index
// entries and catalog blobs fail the kind checks and fall through.
func (r *Registry) ApplyRecord(rec *storage.LogRecord) {
	switch rec.Type {
	case storage.RecInsert, storage.RecUpdate:
		oid, class, ok := readHeader(event.NewReader(rec.After))
		if !ok {
			// The reservation record: the counter's floor at Promote.
			if end, ok := decodeOIDs(rec.After); ok {
				r.oids.mu.Lock()
				r.oids.floor = max(r.oids.floor, end)
				r.oids.rid, r.oids.has = rec.RID, true
				r.oids.mu.Unlock()
			}
			return
		}
		ref := objRef{rid: rec.RID, class: r.className(class)}
		r.oidMu.Lock()
		r.dir.set(oid, ref)
		r.oidMu.Unlock()
	case storage.RecDelete:
		oid, _, ok := readHeader(event.NewReader(rec.Before))
		if !ok {
			return
		}
		ts := r.store.CommitTS()
		r.oidMu.Lock()
		r.grave = append(r.grave, graveRef{oid: oid, rid: rec.RID, ts: ts})
		r.oidMu.Unlock()
		if n := r.opCount.Add(1); n%gravePruneEvery == 0 {
			r.pruneGraves()
		}
	}
}

// Bind associates a name with an OID in the name manager.
func (r *Registry) Bind(tx *txn.Txn, name string, oid event.OID) error {
	if r.store == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.memNames[name] = oid
		return nil
	}
	if err := tx.Lock(namesLock, lockmgr.Exclusive); err != nil {
		return err
	}
	m, err := r.readMeta(tx)
	if err != nil {
		return err
	}
	names, err := r.readNames(tx, m)
	if err != nil {
		return err
	}
	names[name] = uint64(oid)
	return r.writeNames(tx, m, names)
}

// Resolve looks a name up in the name manager.
func (r *Registry) Resolve(tx *txn.Txn, name string) (event.OID, error) {
	if r.store == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		if oid, ok := r.memNames[name]; ok {
			return oid, nil
		}
		return 0, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	if err := tx.Lock(namesLock, lockmgr.Shared); err != nil {
		return 0, err
	}
	m, err := r.readMeta(tx)
	if err != nil {
		return 0, err
	}
	names, err := r.readNames(tx, m)
	if err != nil {
		return 0, err
	}
	if oid, ok := names[name]; ok {
		return event.OID(oid), nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownName, name)
}

// Unbind removes a name binding.
func (r *Registry) Unbind(tx *txn.Txn, name string) error {
	if r.store == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.memNames[name]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownName, name)
		}
		delete(r.memNames, name)
		return nil
	}
	if err := tx.Lock(namesLock, lockmgr.Exclusive); err != nil {
		return err
	}
	m, err := r.readMeta(tx)
	if err != nil {
		return err
	}
	names, err := r.readNames(tx, m)
	if err != nil {
		return err
	}
	if _, ok := names[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	delete(names, name)
	return r.writeNames(tx, m, names)
}
