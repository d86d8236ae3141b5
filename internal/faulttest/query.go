// Query-layer crash torture: the same seeded kill-point discipline as
// Run, but driven through the full object + secondary-index stack instead
// of raw storage records. Every iteration ends with the index≡scan oracle:
// after recovery, each surviving index is probed for every key the extent
// scan can see, and the two answers must agree exactly. Index entries are
// ordinary heap records in the same transactions as the objects they
// describe, so this is the test that the "indexes recover for free" claim
// actually holds under arbitrary crash points — including mid-abort, where
// in-memory directory undo and on-disk CLR undo must land in the same
// place.

package faulttest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/lockmgr"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/txn"
)

// queryStack is one full open of the object+index layers over a store, the
// same wiring the facade performs.
type queryStack struct {
	st  *storage.Store
	tm  *txn.Manager
	reg *object.Registry
	qm  *query.Manager
}

func openQueryStack(dir string, syncWAL bool) (*queryStack, error) {
	st, err := storage.Open(storage.Options{Dir: dir, PoolSize: 32, SyncWAL: syncWAL})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	tm := txn.NewManager(st, lockmgr.New())
	reg := object.NewRegistry(nil, st)
	qm := query.NewManager(st, reg)
	reg.SetIndexHook(qm)
	tx, err := tm.Begin()
	if err != nil {
		st.Close()
		return nil, err
	}
	if err := reg.InitCatalog(tx); err != nil {
		st.Close()
		return nil, fmt.Errorf("init catalog: %w", err)
	}
	if err := tx.Commit(); err != nil {
		st.Close()
		return nil, err
	}
	if _, err := reg.DefineClass("STOCK", "", false); err != nil {
		st.Close()
		return nil, err
	}
	if err := qm.Bootstrap(); err != nil {
		st.Close()
		return nil, fmt.Errorf("index bootstrap: %w", err)
	}
	return &queryStack{st: st, tm: tm, reg: reg, qm: qm}, nil
}

// objRecord mirrors txRecord for object workloads: the sym→price pairs a
// transaction owes the extent iff it commits, and the syms it killed
// unconditionally (same-transaction deletes, aborted subtransactions).
type objRecord struct {
	status txStatus
	values map[string]float64
	dead   []string
}

// QueryExpectation is what one iteration's workload promises the object
// extent — and, transitively, every index over it — after recovery.
type QueryExpectation struct {
	Present       map[string]float64   // sym → price that must be in the scan
	Absent        map[string]bool      // syms that must NOT be in the scan
	Indeterminate []map[string]float64 // per interrupted commit: all or none
}

// RunQuery executes one seeded iteration of the query-layer torture in
// dir: set up class + indexes cleanly, run an object workload (creates,
// re-keying updates, deletes, aborted transactions and subtransactions)
// under a randomly scheduled kill-point, reopen through the full stack,
// then verify durability expectations AND the index≡scan oracle.
func RunQuery(seed int64, dir string) (*Iteration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	it := &Iteration{Seed: seed, Dir: dir}

	syncWAL := rng.Intn(3) == 0
	kp := killPoints[rng.Intn(len(killPoints))]
	for kp.syncOnly && !syncWAL {
		kp = killPoints[rng.Intn(len(killPoints))]
	}
	// Object operations write more records per logical op than the raw
	// storage workload (object bytes + one entry per index), so scale the
	// hit count up to land crashes throughout the run, not just its head.
	on := uint64(1 + rng.Intn(kp.maxHit*3))
	it.Killed = fmt.Sprintf("%s#%d", kp.point, on)

	stk, err := openQueryStack(dir, syncWAL)
	if err != nil {
		return it, err
	}

	// Setup runs unarmed and fully committed: a hash index on sym, an
	// ordered index on price, and a small pre-seeded extent (covering the
	// backfill path). Everything after this point is fair game for the
	// kill-point.
	exp := &QueryExpectation{Present: map[string]float64{}, Absent: map[string]bool{}}
	tx, err := stk.tm.Begin()
	if err != nil {
		return it, err
	}
	for k := 0; k < 5; k++ {
		sym := fmt.Sprintf("seed%d-%d", seed, k)
		price := float64(rng.Intn(20))
		if _, err := stk.reg.New(tx, "STOCK", map[string]any{"sym": sym, "price": price}); err != nil {
			return it, fmt.Errorf("setup new: %w", err)
		}
		exp.Present[sym] = price
	}
	if _, err := stk.qm.CreateIndex(tx, "STOCK", "sym", query.HashIndex); err != nil {
		return it, fmt.Errorf("setup hash index: %w", err)
	}
	if _, err := stk.qm.CreateIndex(tx, "STOCK", "price", query.OrderedIndex); err != nil {
		return it, fmt.Errorf("setup ordered index: %w", err)
	}
	if err := tx.Commit(); err != nil {
		return it, fmt.Errorf("setup commit: %w", err)
	}

	faults.Arm(faults.NewInjector(seed, faults.Trigger{
		Point: kp.point, On: on, Limit: 1, Fault: faults.Fault{Crash: true},
	}))
	crashed := runQueryWorkload(rng, seed, stk, exp)
	faults.Disarm()
	it.Crashed = crashed

	if !crashed {
		if err := stk.st.Close(); err != nil {
			return it, fmt.Errorf("close: %w", err)
		}
	}
	// Crashed stacks are abandoned, not closed — the WAL tail dies with
	// the "process", and so does every in-memory index directory.

	re, err := openQueryStack(dir, syncWAL)
	if err != nil {
		return it, fmt.Errorf("reopen/recovery: %w", err)
	}
	defer re.st.Close()
	if err := VerifyQuery(re, exp); err != nil {
		return it, err
	}
	if err := querySmoke(re, seed); err != nil {
		return it, fmt.Errorf("post-recovery smoke: %w", err)
	}
	return it, nil
}

// runQueryWorkload drives a seeded mix of object transactions — creates,
// price re-keys (index delete+insert), deletes, committed and aborted
// subtransactions, voluntary aborts — and records what each owes the
// extent. Each transaction touches only objects it created itself, so
// expectations compose without cross-transaction ordering analysis.
func runQueryWorkload(rng *rand.Rand, seed int64, stk *queryStack, exp *QueryExpectation) (crashed bool) {
	var txs []*objRecord

	defer func() {
		if r := recover(); r != nil {
			if _, ok := faults.AsCrash(r); !ok {
				panic(r)
			}
			crashed = true
		}
		for _, tr := range txs {
			switch tr.status {
			case txCommitted:
				for sym, price := range tr.values {
					exp.Present[sym] = price
				}
			case txCommitting:
				if len(tr.values) > 0 {
					g := make(map[string]float64, len(tr.values))
					for sym, price := range tr.values {
						g[sym] = price
					}
					exp.Indeterminate = append(exp.Indeterminate, g)
				}
			default:
				for sym := range tr.values {
					exp.Absent[sym] = true
				}
			}
			for _, sym := range tr.dead {
				exp.Absent[sym] = true
			}
		}
	}()

	nTxns := 5 + rng.Intn(6)
	for i := 0; i < nTxns; i++ {
		tr := &objRecord{values: map[string]float64{}}
		txs = append(txs, tr)
		tx, err := stk.tm.Begin()
		if err != nil {
			return
		}
		type made struct {
			sym string
			oid event.OID
		}
		var mine []made
		nOps := 1 + rng.Intn(4)
		for k := 0; k < nOps; k++ {
			sym := fmt.Sprintf("o%d-%d-%d", seed, i, k)
			price := float64(rng.Intn(20))
			inst, err := stk.reg.New(tx, "STOCK", map[string]any{"sym": sym, "price": price})
			if err != nil {
				return
			}
			tr.values[sym] = price
			mine = append(mine, made{sym: sym, oid: inst.OID})
		}
		if len(mine) > 0 && rng.Intn(3) == 0 {
			// Re-key one of our own objects: the ordered index must drop
			// the old price posting and add the new one atomically with
			// the object update.
			j := rng.Intn(len(mine))
			inst, err := stk.reg.Load(tx, mine[j].oid)
			if err != nil {
				return
			}
			price := float64(rng.Intn(20))
			inst.Attrs()["price"] = price
			if err := stk.reg.Persist(tx, inst); err != nil {
				return
			}
			tr.values[mine[j].sym] = price
		}
		if len(mine) > 1 && rng.Intn(4) == 0 {
			// Delete one of our own objects: its postings die with it in
			// every outcome.
			j := rng.Intn(len(mine))
			if err := stk.reg.Delete(tx, mine[j].oid); err != nil {
				return
			}
			delete(tr.values, mine[j].sym)
			tr.dead = append(tr.dead, mine[j].sym)
			mine = append(mine[:j], mine[j+1:]...)
		}
		if rng.Intn(3) == 0 {
			// Subtransaction: its object follows the parent iff the sub
			// commits; a sub-abort must undo the index entries right now,
			// while the parent lives on.
			sub, err := tx.BeginSub()
			if err != nil {
				return
			}
			sym := fmt.Sprintf("o%d-%d-sub", seed, i)
			price := float64(rng.Intn(20))
			if _, err := stk.reg.New(sub, "STOCK", map[string]any{"sym": sym, "price": price}); err != nil {
				return
			}
			if rng.Intn(2) == 0 {
				if err := sub.Commit(); err != nil {
					return
				}
				tr.values[sym] = price
			} else {
				if err := sub.Abort(); err != nil {
					return
				}
				tr.dead = append(tr.dead, sym)
			}
		}
		if rng.Intn(10) < 7 {
			tr.status = txCommitting
			if err := tx.Commit(); err != nil {
				return
			}
			tr.status = txCommitted
		} else {
			tr.status = txAborting
			if err := tx.Abort(); err != nil {
				return
			}
			tr.status = txAborted
		}
	}
	return
}

// VerifyQuery checks the recovered stack against the expectation, then
// runs the index≡scan oracle: every index that survived recovery must
// answer every key exactly as a full extent scan does — equality probes on
// each distinct key plus a spread of range scans on the ordered index —
// and must do so from its directories, never by falling back to the
// extent.
func VerifyQuery(stk *queryStack, exp *QueryExpectation) error {
	tx, err := stk.tm.Begin()
	if err != nil {
		return err
	}
	defer tx.Abort()

	// Ground truth: one full extent scan.
	type obj struct {
		oid   event.OID
		price float64
	}
	scan := map[string]obj{}
	loaded := 0
	err = stk.reg.ForEach(tx, "STOCK", false, func(inst *object.Instance) bool {
		sym, _ := inst.Attrs()["sym"].(string)
		price, _ := inst.Attrs()["price"].(float64)
		scan[sym] = obj{oid: inst.OID, price: price}
		loaded++
		return true
	})
	if err != nil {
		return fmt.Errorf("extent scan: %w", err)
	}

	// Header-only ≡ full decode: the directory the scan walked was rebuilt
	// at open from record headers alone, and every entry the scan kept was
	// fully decoded and matched on OID and class. Every object record on
	// the recovered heap (all committed, all STOCK) must have passed both.
	onHeap := 0
	err = stk.st.ForEachRecordLatest(func(_ storage.RID, data []byte) error {
		if len(data) > 0 && data[0] == object.KindObject {
			onHeap++
		}
		return nil
	})
	if err != nil || onHeap != loaded {
		return fmt.Errorf("invariant: %d object records on the heap, %d loaded through the header-built directory (%v)", onHeap, loaded, err)
	}

	for sym, price := range exp.Present {
		got, ok := scan[sym]
		if !ok {
			return fmt.Errorf("invariant: committed object %q missing after recovery", sym)
		}
		if got.price != price {
			return fmt.Errorf("invariant: committed object %q recovered with price %v, want %v", sym, got.price, price)
		}
	}
	for sym := range exp.Absent {
		if _, ok := scan[sym]; ok {
			return fmt.Errorf("invariant: aborted/deleted object %q present after recovery", sym)
		}
	}
	for _, group := range exp.Indeterminate {
		n := 0
		for sym, price := range group {
			if got, ok := scan[sym]; ok {
				if got.price != price {
					return fmt.Errorf("invariant: interrupted commit recovered %q with price %v, want %v", sym, got.price, price)
				}
				n++
			}
		}
		if n != 0 && n != len(group) {
			return fmt.Errorf("invariant: interrupted commit recovered partially (%d of %d objects)", n, len(group))
		}
	}

	// Setup committed both indexes before the kill-point armed, so both
	// must have survived recovery.
	defs := stk.qm.Defs()
	if len(defs) != 2 {
		return fmt.Errorf("invariant: %d index definitions after recovery, want 2 (%v)", len(defs), defs)
	}

	probes0, ranges0, _, _, _ := stk.qm.Stats()

	// Oracle 1: hash-probe every sym the scan found, plus one known-absent
	// key. Each probe must return exactly the scanned object.
	for sym, want := range scan {
		rows, err := stk.qm.Run(tx, query.Q{Class: "STOCK", Where: query.Eq("sym", sym)})
		if err != nil {
			return fmt.Errorf("probe %q: %w", sym, err)
		}
		if len(rows) != 1 || rows[0].OID != want.oid {
			return fmt.Errorf("oracle: probe sym=%q returned %d rows (want oid %d)", sym, len(rows), want.oid)
		}
	}
	if rows, err := stk.qm.Run(tx, query.Q{Class: "STOCK", Where: query.Eq("sym", "no-such-sym")}); err != nil {
		return err
	} else if len(rows) != 0 {
		return fmt.Errorf("oracle: probe of absent sym returned %d rows", len(rows))
	}

	// Oracle 2: range scans over the ordered price index, compared to the
	// extent-scan answer for the same predicate. Prices live in [0,20).
	for _, b := range [][2]float64{{0, 19}, {3, 9}, {12, 12}} {
		p := query.Between("price", b[0], b[1])
		want := map[event.OID]bool{}
		for _, o := range scan {
			if o.price >= b[0] && o.price <= b[1] {
				want[o.oid] = true
			}
		}
		rows, err := stk.qm.Run(tx, query.Q{Class: "STOCK", Where: p})
		if err != nil {
			return fmt.Errorf("range [%v,%v]: %w", b[0], b[1], err)
		}
		if len(rows) != len(want) {
			return fmt.Errorf("oracle: range [%v,%v] returned %d rows, scan says %d", b[0], b[1], len(rows), len(want))
		}
		for _, r := range rows {
			if !want[r.OID] {
				return fmt.Errorf("oracle: range [%v,%v] returned oid %d the scan did not", b[0], b[1], r.OID)
			}
		}
	}

	// The oracle queries above must have been answered by the indexes —
	// a planner that silently fell back to extent scans would make the
	// whole comparison vacuous.
	probes1, ranges1, _, _, _ := stk.qm.Stats()
	if probes1 <= probes0 {
		return fmt.Errorf("oracle: equality probes did not touch the hash index")
	}
	if ranges1 <= ranges0 {
		return fmt.Errorf("oracle: range queries did not touch the ordered index")
	}
	return nil
}

// querySmoke proves the recovered stack accepts new indexed work: create
// an object, commit, find it again through the hash index, and sweep any
// orphaned index entries a crashed DDL might have stranded.
func querySmoke(stk *queryStack, seed int64) error {
	tx, err := stk.tm.Begin()
	if err != nil {
		return err
	}
	if _, err := stk.qm.SweepOrphans(tx); err != nil {
		tx.Abort()
		return fmt.Errorf("orphan sweep: %w", err)
	}
	sym := fmt.Sprintf("smoke-%d", seed)
	inst, err := stk.reg.New(tx, "STOCK", map[string]any{"sym": sym, "price": 7.5})
	if err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	tx, err = stk.tm.Begin()
	if err != nil {
		return err
	}
	defer tx.Abort()
	rows, err := stk.qm.Run(tx, query.Q{Class: "STOCK", Where: query.Eq("sym", sym)})
	if err != nil {
		return err
	}
	if len(rows) != 1 || rows[0].OID != inst.OID {
		return fmt.Errorf("smoke: new object not findable through the index (%d rows)", len(rows))
	}
	return nil
}

// errIsLockConflict reports whether err is the kind of lock-layer refusal
// (deadlock victim, timeout) the race stress treats as a normal retry.
func errIsLockConflict(err error) bool {
	return err != nil && (errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout))
}
