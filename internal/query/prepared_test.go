package query

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/txn"
)

// seedFloats creates n STOCK objects with price float64(i%mod): canonical
// values, which compare without allocating.
func (e *env) seedFloats(n, mod int) {
	tx := e.begin()
	for i := 0; i < n; i++ {
		if _, err := e.reg.New(tx, "STOCK", map[string]any{"price": float64(i % mod)}); err != nil {
			e.t.Fatal(err)
		}
	}
	e.commit(tx)
}

func sameOIDs(a, b []uint64) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// TestOldSnapshotIgnoresNewerIndex: a snapshot older than an index's create
// must not read through it. The backfill indexed the extent as it stood at
// the create, so X, deleted after the snapshot began, and Y, re-keyed
// after it began, have no posting under the key the snapshot sees them
// with; the old snapshot takes the extent scan, a new one the index.
func TestOldSnapshotIgnoresNewerIndex(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	tx := e.begin()
	newStock := func(branch int) uint64 {
		inst, err := e.reg.New(tx, "STOCK", map[string]any{"branch": branch})
		if err != nil {
			t.Fatal(err)
		}
		return uint64(inst.OID)
	}
	x, y, z := newStock(7), newStock(7), newStock(3)
	e.commit(tx)
	// Prepared before the index exists: each re-plans after the create.
	prepared := map[int]*Prepared{}
	for _, key := range []int{3, 7, 8} {
		prepared[key] = e.qm.Prepare("STOCK", false, Eq("branch", key))
	}
	// sees runs the query, the prepared probe and the extent walk for
	// branch = key on tx and fails unless all three agree with want.
	sees := func(tx *txn.Txn, key int, want []uint64) {
		t.Helper()
		pred := Eq("branch", key)
		if got := e.runOIDs(tx, Q{Class: "STOCK", Where: pred}); !sameOIDs(got, want) {
			t.Fatalf("Query(branch = %d) = %v, want %v", key, got, want)
		}
		if oracle := e.scanOracle(tx, "STOCK", false, pred); !sameOIDs(oracle, want) {
			t.Fatalf("ForEach(branch = %d) = %v, want %v", key, oracle, want)
		}
		if ok, err := prepared[key].Exists(tx); err != nil || ok != (len(want) > 0) {
			t.Fatalf("Exists(branch = %d) = %v, %v, want %v", key, ok, err, len(want) > 0)
		}
	}

	old, err := e.tm.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	tx = e.begin()
	if err := e.reg.Delete(tx, event.OID(x)); err != nil {
		t.Fatal(err)
	}
	inst, err := e.reg.Load(tx, event.OID(y))
	if err != nil {
		t.Fatal(err)
	}
	inst.Attrs()["branch"] = 8
	if err := e.reg.Persist(tx, inst); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	tx = e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "branch", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)

	probes, _, _, _, _ := e.qm.Stats()
	sees(old, 7, []uint64{x, y})
	sees(old, 3, []uint64{z})
	if now, _, _, _, _ := e.qm.Stats(); now != probes {
		t.Fatalf("the old snapshot probed the newer index %d times", now-probes)
	}
	_ = old.Commit()

	fresh, err := e.tm.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Commit()
	sees(fresh, 7, nil)
	sees(fresh, 8, []uint64{y})
	if now, _, _, _, _ := e.qm.Stats(); now == probes {
		t.Fatal("a snapshot newer than the index did not probe it")
	}
}

// TestPreparedReplansOnDDL: a prepared probe keeps its plan while the
// catalog stands still and re-plans once after each index create, drop
// and aborted create.
func TestPreparedReplansOnDDL(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	e.seedStocks(20, 5)
	p := e.qm.Prepare("STOCK", false, Eq("price", 3))
	plan := func(wantPrefix string) {
		t.Helper()
		before := e.qm.plans.Load()
		tx := e.begin()
		for i := 0; i < 3; i++ {
			if ok, err := p.Exists(tx); err != nil || !ok {
				t.Fatalf("Exists = %v, %v", ok, err)
			}
		}
		e.commit(tx)
		if n := e.qm.plans.Load() - before; n > 1 {
			t.Fatalf("three probes compiled %d plans, want at most 1", n)
		}
		if got := p.Explain(); !strings.HasPrefix(got, wantPrefix) {
			t.Fatalf("prepared plan %q, want %s…", got, wantPrefix)
		}
	}
	plan("ExtentScan(STOCK)")
	before := e.qm.plans.Load()
	plan("ExtentScan(STOCK)")
	if n := e.qm.plans.Load() - before; n != 0 {
		t.Fatalf("an unchanged catalog re-planned %d times", n)
	}

	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	plan("IndexProbe(hash(STOCK.price)")
	tx = e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	_ = tx.Abort()
	plan("IndexProbe(hash(STOCK.price)")
	tx = e.begin()
	if err := e.qm.DropIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	plan("ExtentScan(STOCK)")
}

// TestPlanBuildsNoDescription pins what planning an index probe allocates:
// the access path carries no text (Explain formats it), so a query pays
// for none.
func TestPlanBuildsNoDescription(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	e := newEnv(t)
	defer e.close()
	e.seedFloats(200, 5)
	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	tx, err := e.tm.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	q := Q{Class: "STOCK", Where: Eq("price", 3.0)}
	if plan := e.qm.Explain(q); !strings.HasPrefix(plan, "IndexProbe") {
		t.Fatalf("plan %q, want an IndexProbe", plan)
	}
	allocs := testing.AllocsPerRun(100, func() {
		it, err := e.qm.Plan(tx, q)
		if err != nil {
			t.Fatal(err)
		}
		it.Close()
	})
	// Left: the encoded key, the source iterator and the candidate slice
	// (11 while the plan carried its description).
	if allocs > 3 {
		t.Fatalf("planning an index probe allocates %.0f objects, want at most 3", allocs)
	}
}

// TestPreparedExistsAllocations: a snapshot probe of a prepared equality
// condition allocates nothing: not for the plan, the candidates or the
// row, whose slot holds the decoded value unboxed.
func TestPreparedExistsAllocations(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	e.seedFloats(200, 5)
	for _, kind := range []IndexKind{HashIndex, OrderedIndex} {
		tx := e.begin()
		if _, err := e.qm.CreateIndex(tx, "STOCK", "price", kind); err != nil {
			t.Fatal(err)
		}
		e.commit(tx)
		p := e.qm.Prepare("STOCK", false, Eq("price", 3.0))
		snap, err := e.tm.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		plans := e.qm.plans.Load()
		allocs := testing.AllocsPerRun(100, func() {
			if ok, err := p.Exists(snap); err != nil || !ok {
				t.Fatalf("Exists = %v, %v", ok, err)
			}
		})
		_ = snap.Commit()
		if allocs > 0 && !raceEnabled {
			t.Fatalf("%v: a prepared probe allocates %.1f objects, want none", kind, allocs)
		}
		if n := e.qm.plans.Load() - plans; n != 0 {
			t.Fatalf("%v: prepared probes compiled %d plans", kind, n)
		}
		tx = e.begin()
		if err := e.qm.DropIndex(tx, "STOCK", "price", kind); err != nil {
			t.Fatal(err)
		}
		e.commit(tx)
	}
}
