// The query stack: the workload runs through the full object +
// secondary-index stack instead of raw storage records, and every recovery
// ends with the index≡scan oracle — each surviving index is probed for
// every key the extent scan can see, and the two answers must agree
// exactly. Index entries are ordinary heap records in the same transactions
// as the objects they describe, so this is the test that the "indexes
// recover for free" claim actually holds under arbitrary crash points —
// including mid-abort, where in-memory directory undo and on-disk CLR undo
// must land in the same place.

package faulttest

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/txn"
)

// queryStack is one full open of the object+index layers over a store, the
// same wiring the facade performs. A value is one STOCK object, sym → price.
type queryStack struct {
	storeStack
	tm  *txn.Manager
	reg *object.Registry
	qm  *query.Manager
}

func openQuery(dir string, sch Schedule) (stack, error) {
	st, err := openStore(dir, sch, false)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	q := &queryStack{storeStack: storeStack{st}, tm: txn.NewManager(st, lockmgr.New()), reg: object.NewRegistry(nil, st)}
	q.qm = query.NewManager(st, q.reg)
	q.reg.SetIndexHook(q.qm)
	// The facade's open sequence: the catalog and the class, the index
	// directories rebuilt from the heap, and any index entries a crashed DDL
	// stranded swept.
	if err = q.inTx(q.reg.InitCatalog); err == nil {
		_, err = q.reg.DefineClass("STOCK", "", false)
	}
	if err == nil {
		err = q.qm.Bootstrap()
	}
	if err == nil {
		err = q.inTx(func(tx *txn.Txn) error { _, err := q.qm.SweepOrphans(tx); return err })
	}
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("boot: %w", err)
	}
	return q, nil
}

// inTx runs fn in a transaction of its own, committed iff fn succeeds.
func (q *queryStack) inTx(fn func(*txn.Txn) error) error {
	tx, err := q.tm.Begin()
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (q *queryStack) begin() (tx, error) {
	t, err := q.tm.Begin()
	return &objTx{q, t, map[string]event.OID{}}, err
}

// setup commits five objects and indexes them in the same transaction
// (covering the backfill path): a hash index on sym, an ordered index on
// price.
func (q *queryStack) setup(led *ledger, rng *rand.Rand) error {
	t := led.begin()
	x, err := q.begin()
	if err == nil {
		_, err = insertOwn(x, t, rng, "setup", 5)
	}
	if err == nil {
		_, err = q.qm.CreateIndex(x.(*objTx).tx, "STOCK", "sym", query.HashIndex)
	}
	if err == nil {
		_, err = q.qm.CreateIndex(x.(*objTx).tx, "STOCK", "price", query.OrderedIndex)
	}
	if err != nil {
		return err
	}
	return t.commit(x)
}

// verify runs the stack's own oracles over the recovered extent, then the
// durability check over what they read (once their transaction is gone).
func (q *queryStack) verify(exp *Expectation) error {
	found, err := q.oracles()
	if err != nil {
		return err
	}
	return durable(q.st, found, exp)
}

// oracles reads the ground truth — one full extent scan, keyed by sym — and
// returns it as sym → price once two oracles agree with it. Header-only ≡
// full decode: every object record on the heap was loaded. Index≡scan:
// every index that survived recovery answers exactly as the scan does — a
// hash probe of every sym the scan found plus one known-absent sym, and a
// spread of range scans over the ordered price index (prices live in
// [0,20)) — and does so from its directories, never by falling back to the
// extent.
func (q *queryStack) oracles() (map[string]string, error) {
	tx, err := q.tm.Begin()
	if err != nil {
		return nil, err
	}
	defer tx.Abort()
	found, scan := map[string]string{}, map[string]*object.Instance{}
	loaded := 0
	err = q.reg.ForEach(tx, "STOCK", false, func(inst *object.Instance) bool {
		sym, _ := inst.Attrs()["sym"].(string)
		price, _ := inst.Attrs()["price"].(float64)
		found[sym], scan[sym] = strconv.FormatFloat(price, 'g', -1, 64), inst
		loaded++
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("extent scan: %w", err)
	}
	if len(scan) != loaded {
		return nil, fmt.Errorf("invariant: %d objects loaded, %d distinct syms", loaded, len(scan))
	}

	// The directory the scan walked was rebuilt at open from record headers
	// alone, and every entry the scan kept was fully decoded and matched on
	// OID and class. Every object record on the recovered heap (all
	// committed, all STOCK) must have passed both.
	_, latest, err := scans(q.st)
	onHeap := 0
	for _, rec := range latest {
		if rec != "" && rec[0] == object.KindObject {
			onHeap++
		}
	}
	if err != nil || onHeap != loaded {
		return nil, fmt.Errorf("invariant: %d object records on the heap, %d loaded through the header-built directory (%v)", onHeap, loaded, err)
	}

	// Setup committed both indexes before the kill-point armed, so both
	// must have survived recovery.
	if defs := q.qm.Defs(); len(defs) != 2 {
		return nil, fmt.Errorf("invariant: %d index definitions after recovery, want 2 (%v)", len(defs), defs)
	}
	want := map[query.Pred]map[event.OID]bool{query.Eq("sym", "no-such-sym"): {}}
	for sym, o := range scan {
		want[query.Eq("sym", sym)] = map[event.OID]bool{o.OID: true}
	}
	for _, b := range [][2]float64{{0, 19}, {3, 9}, {12, 12}} {
		in := map[event.OID]bool{}
		for _, o := range scan {
			if p, _ := o.Attrs()["price"].(float64); p >= b[0] && p <= b[1] {
				in[o.OID] = true
			}
		}
		want[query.Between("price", b[0], b[1])] = in
	}
	probes0, ranges0, _, _, _ := q.qm.Stats()
	for p, oids := range want {
		rows, err := q.qm.Run(tx, query.Q{Class: "STOCK", Where: p})
		if err != nil {
			return nil, fmt.Errorf("oracle %v: %w", p, err)
		}
		if len(rows) != len(oids) {
			return nil, fmt.Errorf("oracle: %v returned %d rows, the extent scan %d", p, len(rows), len(oids))
		}
		for _, r := range rows {
			if !oids[r.OID] {
				return nil, fmt.Errorf("oracle: %v returned oid %d the extent scan did not", p, r.OID)
			}
		}
	}

	// The oracle queries above must have been answered by the indexes —
	// a planner that silently fell back to extent scans would make the
	// whole comparison vacuous.
	probes1, ranges1, _, _, _ := q.qm.Stats()
	if probes1 <= probes0 {
		return nil, fmt.Errorf("oracle: equality probes did not touch the hash index")
	}
	if ranges1 <= ranges0 {
		return nil, fmt.Errorf("oracle: range queries did not touch the ordered index")
	}
	return found, nil
}

// objTx is an object-layer transaction and the objects it created.
type objTx struct {
	q    *queryStack
	tx   *txn.Txn
	oids map[string]event.OID
}

func (x *objTx) insert(sym string, price int) error {
	inst, err := x.q.reg.New(x.tx, "STOCK", map[string]any{"sym": sym, "price": float64(price)})
	if err == nil {
		x.oids[sym] = inst.OID
	}
	return err
}

func (x *objTx) update(sym string, price int) error {
	inst, err := x.q.reg.Load(x.tx, x.oids[sym])
	if err != nil {
		return err
	}
	inst.Attrs()["price"] = float64(price)
	return x.q.reg.Persist(x.tx, inst)
}

func (x *objTx) remove(sym string) error { return x.q.reg.Delete(x.tx, x.oids[sym]) }

func (x *objTx) sub() (tx, error) {
	t, err := x.tx.BeginSub()
	return &objTx{x.q, t, map[string]event.OID{}}, err
}

func (x *objTx) commit() error { return x.tx.Commit() }
func (x *objTx) abort() error  { return x.tx.Abort() }

// errIsLockConflict reports whether err is the kind of lock-layer refusal
// (deadlock victim, timeout) the race stress treats as a normal retry.
func errIsLockConflict(err error) bool {
	return err != nil && (errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout))
}
