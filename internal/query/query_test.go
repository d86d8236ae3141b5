package query

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/object"
	"repro/internal/storage"
	"repro/internal/txn"
)

// env wires a real store, registry and index manager the way the facade
// does, so every test exercises the production maintenance path.
type env struct {
	t   *testing.T
	dir string
	st  *storage.Store
	tm  *txn.Manager
	reg *object.Registry
	qm  *Manager
}

func openEnv(t *testing.T, dir string) *env {
	t.Helper()
	st, err := storage.Open(storage.Options{Dir: dir, PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	tm := txn.NewManager(st, lockmgr.New())
	reg := object.NewRegistry(nil, st)
	qm := NewManager(st, reg)
	reg.SetIndexHook(qm)
	tx, err := tm.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.InitCatalog(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := qm.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	e := &env{t: t, dir: dir, st: st, tm: tm, reg: reg, qm: qm}
	e.mustClass("SECURITY", "")
	e.mustClass("STOCK", "SECURITY")
	e.mustClass("BOND", "SECURITY")
	return e
}

func newEnv(t *testing.T) *env { return openEnv(t, t.TempDir()) }

func (e *env) mustClass(name, super string) {
	if _, err := e.reg.DefineClass(name, super, false); err != nil {
		e.t.Fatal(err)
	}
}

func (e *env) close() {
	if err := e.st.Close(); err != nil {
		e.t.Fatal(err)
	}
}

// reopen simulates a restart: close everything, open from the same dir.
func (e *env) reopen() *env {
	e.close()
	return openEnv(e.t, e.dir)
}

func (e *env) begin() *txn.Txn {
	tx, err := e.tm.Begin()
	if err != nil {
		e.t.Fatal(err)
	}
	return tx
}

func (e *env) commit(tx *txn.Txn) {
	if err := tx.Commit(); err != nil {
		e.t.Fatal(err)
	}
}

// seedStocks creates n STOCK objects with price i%mod and tier strings.
func (e *env) seedStocks(n, mod int) {
	tx := e.begin()
	for i := 0; i < n; i++ {
		_, err := e.reg.New(tx, "STOCK", map[string]any{
			"sym":   fmt.Sprintf("S%04d", i),
			"price": i % mod,
			"tier":  fmt.Sprintf("T%d", i%3),
		})
		if err != nil {
			e.t.Fatal(err)
		}
	}
	e.commit(tx)
}

// scanOracle answers the query the slow, trustworthy way: full extent
// walk with predicate evaluation, no index involvement.
func (e *env) scanOracle(tx *txn.Txn, class string, subs bool, p Pred) []uint64 {
	var got []uint64
	err := e.reg.ForEach(tx, class, subs, func(inst *object.Instance) bool {
		if p == nil || p.Eval(inst.Attrs()) {
			got = append(got, uint64(inst.OID))
		}
		return true
	})
	if err != nil {
		e.t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

func rowOIDs(rows []Row) []uint64 {
	out := make([]uint64, len(rows))
	for i, r := range rows {
		out[i] = uint64(r.OID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (e *env) runOIDs(tx *txn.Txn, q Q) []uint64 {
	rows, err := e.qm.Run(tx, q)
	if err != nil {
		e.t.Fatal(err)
	}
	return rowOIDs(rows)
}

// checkOracle asserts query result ≡ oracle for the predicate.
func (e *env) checkOracle(tx *txn.Txn, class string, p Pred) {
	e.t.Helper()
	got := e.runOIDs(tx, Q{Class: class, Where: p})
	want := e.scanOracle(tx, class, false, p)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		e.t.Fatalf("query %v: got %v want %v (plan: %s)",
			p, got, want, e.qm.Explain(Q{Class: class, Where: p}))
	}
}

func TestKeyEncodingOrderMatchesCompare(t *testing.T) {
	vals := []any{nil, false, true, -1e300, -42.5, -1, 0, 0.5, 3, int64(3), 3.0,
		uint8(7), 1e300, "", "a", "ab", "b", "zzz"}
	for _, a := range vals {
		for _, b := range vals {
			ka, okA := encodeKey(a)
			kb, okB := encodeKey(b)
			if !okA || !okB {
				t.Fatalf("encodeKey failed for %v / %v", a, b)
			}
			rel, cmp := compareAny(a, b)
			if !cmp {
				t.Fatalf("compareValues(%v, %v) not comparable", a, b)
			}
			if got := bytes.Compare(ka, kb); (got < 0) != (rel < 0) || (got == 0) != (rel == 0) {
				t.Fatalf("order mismatch %v vs %v: bytes %d compare %d", a, b, got, rel)
			}
		}
	}
}

func TestCatalogCodec(t *testing.T) {
	defs := []IndexDef{
		{ID: 1, Class: "STOCK", Attr: "price", Kind: OrderedIndex},
		{ID: 1 << 31, Class: "BOND", Attr: "sym", Kind: HashIndex},
	}
	data := encodeCatalog(defs)
	got, ok := decodeCatalog(data)
	if !ok || !reflect.DeepEqual(got, defs) {
		t.Fatalf("catalog round trip: %v %v", got, ok)
	}
	if got, ok := decodeCatalog(encodeCatalog(nil)); !ok || len(got) != 0 {
		t.Fatalf("empty catalog: %v %v", got, ok)
	}
	for n := 0; n < len(data); n++ {
		if _, ok := decodeCatalog(data[:n]); ok {
			t.Fatalf("catalog truncated to %d bytes decoded", n)
		}
	}
	if _, ok := decodeCatalog(append([]byte{entryMagic}, data[1:]...)); ok {
		t.Fatal("an entry record decoded as the catalog")
	}
	def, ok := decodeDef(appendDef(nil, defs[1]))
	if !ok || def != defs[1] {
		t.Fatalf("DDL payload round trip: %v %v", def, ok)
	}
	if _, ok := decodeDef(appendDef(nil, IndexDef{Class: "STOCK", Attr: "price", Kind: HashIndex})); ok {
		t.Fatal("definition with ID 0 accepted")
	}
}

func TestPredEval(t *testing.T) {
	attrs := map[string]any{"price": 10, "tier": "T1"}
	cases := []struct {
		p    Pred
		want bool
	}{
		{Eq("price", 10), true},
		{Eq("price", 10.0), true},
		{Eq("price", 11), false},
		{Ne("price", 11), true},
		{Lt("price", 11), true},
		{Ge("price", 10), true},
		{Gt("price", 10), false},
		{Between("price", 5, 15), true},
		{Between("price", 11, 15), false},
		{Eq("tier", "T1"), true},
		{Lt("tier", "T2"), true},
		{And(Eq("price", 10), Eq("tier", "T1")), true},
		{And(Eq("price", 10), Eq("tier", "T2")), false},
		{Or(Eq("price", 99), Eq("tier", "T1")), true},
		{Not(Eq("price", 10)), false},
		{Eq("missing", nil), true},
		{Gt("price", "a-string"), false}, // num < str in the cross-type order
		{Lt("price", "a-string"), true},
	}
	for _, c := range cases {
		if got := c.p.Eval(attrs); got != c.want {
			t.Errorf("%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSkiplistBasics(t *testing.T) {
	s := newSkiplist()
	for i := 99; i >= 0; i-- {
		key, _ := encodeKey(i)
		s.set(okey(key, uint64(i)), skipVal{oid: uint64(i)})
	}
	if s.len() != 100 {
		t.Fatalf("len = %d", s.len())
	}
	var seen []uint64
	s.scan(nil, nil, func(_ []byte, v skipVal) bool {
		seen = append(seen, v.oid)
		return true
	})
	for i, oid := range seen {
		if oid != uint64(i) {
			t.Fatalf("scan out of order at %d: %d", i, oid)
		}
	}
	lo, _ := encodeKey(10)
	hi, _ := encodeKey(20)
	var ranged []uint64
	s.scan(lo, hi, func(_ []byte, v skipVal) bool {
		ranged = append(ranged, v.oid)
		return true
	})
	if len(ranged) != 10 || ranged[0] != 10 || ranged[9] != 19 {
		t.Fatalf("range scan [10,20): %v", ranged)
	}
	key, _ := encodeKey(50)
	s.del(okey(key, 50))
	if _, ok := s.get(okey(key, 50)); ok || s.len() != 99 {
		t.Fatal("delete failed")
	}
}

func TestIndexProbeMatchesScan(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	e.seedStocks(300, 50)

	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := e.qm.CreateIndex(tx, "STOCK", "tier", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)

	tx = e.begin()
	defer e.commit(tx)
	e.checkOracle(tx, "STOCK", Eq("price", 7))
	e.checkOracle(tx, "STOCK", Eq("price", 9999)) // no hits
	e.checkOracle(tx, "STOCK", Eq("tier", "T2"))
	e.checkOracle(tx, "STOCK", And(Eq("price", 7), Eq("tier", "T1")))

	probes, _, extents, _, _ := e.qm.Stats()
	if probes == 0 {
		t.Fatal("no index probes recorded")
	}
	if plan := e.qm.Explain(Q{Class: "STOCK", Where: Eq("price", 7)}); plan[:10] != "IndexProbe" {
		t.Fatalf("expected IndexProbe plan, got %s", plan)
	}
	// Subclass-widened queries must not use the exact-class index.
	before := extents
	_ = e.runOIDs(tx, Q{Class: "SECURITY", Subclasses: true, Where: Eq("price", 7)})
	if _, _, after, _, _ := e.qm.Stats(); after != before+1 {
		t.Fatal("subtree query should fall back to extent scan")
	}
}

func TestOrderedRangeMatchesScan(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	e.seedStocks(200, 100)

	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)

	tx = e.begin()
	defer e.commit(tx)
	for _, p := range []Pred{
		Between("price", 10, 20),
		And(Gt("price", 10), Lt("price", 20)),
		Ge("price", 95),
		Lt("price", 5),
		And(Ge("price", 30), Le("price", 30)),
		Between("price", 60, 50), // empty interval
	} {
		e.checkOracle(tx, "STOCK", p)
	}
	if _, ranges, _, _, _ := e.qm.Stats(); ranges == 0 {
		t.Fatal("no range scans recorded")
	}
}

// String keys are unterminated, so the postings of "a" and of every
// longer string starting with "a" share a key prefix: a string bound can
// only narrow the scan to that prefix range and Verify must decide the
// boundary rows (Gt("sym","a") once skipped "ab" and "abc").
func TestOrderedRangeStringPrefixes(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	tx := e.begin()
	for _, sym := range []string{"a", "a\x00", "ab", "abc", "b", "ba"} {
		if _, err := e.reg.New(tx, "STOCK", map[string]any{"sym": sym}); err != nil {
			t.Fatal(err)
		}
	}
	e.commit(tx)
	tx = e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "sym", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)

	tx = e.begin()
	defer e.commit(tx)
	for _, p := range []Pred{
		Gt("sym", "a"),
		Ge("sym", "a"),
		Ge("sym", "ab"),
		Gt("sym", "ab"),
		Lt("sym", "ab"),
		Lt("sym", "a\x00"),
		Le("sym", "a"),
		Le("sym", "ab"),
		Between("sym", "a", "ab"),
		Between("sym", "ab", "b"),
		And(Gt("sym", "a"), Lt("sym", "b")),
	} {
		e.checkOracle(tx, "STOCK", p)
	}
	if got := e.runOIDs(tx, Q{Class: "STOCK", Where: Gt("sym", "a")}); len(got) != 5 {
		t.Fatalf("Gt(sym, a) returned %v, want 5 rows", got)
	}
	if _, ranges, _, _, _ := e.qm.Stats(); ranges == 0 {
		t.Fatal("no range scans recorded")
	}
}

func TestMaintenanceUpdateDeleteAbort(t *testing.T) {
	e := newEnv(t)
	defer e.close()

	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	obj, err := e.reg.New(tx, "STOCK", map[string]any{"price": 5})
	if err != nil {
		t.Fatal(err)
	}
	e.commit(tx)

	// Committed update re-keys the posting.
	tx = e.begin()
	loaded, err := e.reg.Load(tx, obj.OID)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Attrs()["price"] = 50
	if err := e.reg.Persist(tx, loaded); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)

	tx = e.begin()
	e.checkOracle(tx, "STOCK", Eq("price", 5))
	e.checkOracle(tx, "STOCK", Eq("price", 50))
	if got := e.runOIDs(tx, Q{Class: "STOCK", Where: Eq("price", 50)}); len(got) != 1 {
		t.Fatalf("want the re-keyed object, got %v", got)
	}
	e.commit(tx)

	// Aborted update leaves the index unchanged.
	tx = e.begin()
	loaded, err = e.reg.Load(tx, obj.OID)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Attrs()["price"] = 7777
	if err := e.reg.Persist(tx, loaded); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	tx = e.begin()
	e.checkOracle(tx, "STOCK", Eq("price", 7777))
	e.checkOracle(tx, "STOCK", Eq("price", 50))
	e.commit(tx)

	// Committed delete removes the object from probes.
	tx = e.begin()
	if err := e.reg.Delete(tx, obj.OID); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	tx = e.begin()
	if got := e.runOIDs(tx, Q{Class: "STOCK", Where: Eq("price", 50)}); len(got) != 0 {
		t.Fatalf("deleted object still probed: %v", got)
	}
	e.commit(tx)
}

func TestIndexSurvivesReopen(t *testing.T) {
	e := newEnv(t)
	e.seedStocks(100, 10)
	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)

	e = e.reopen()
	defer e.close()
	defs := e.qm.Defs()
	if len(defs) != 1 || defs[0].Class != "STOCK" || defs[0].Attr != "price" || defs[0].Kind != HashIndex {
		t.Fatalf("defs after reopen: %v", defs)
	}
	tx = e.begin()
	defer e.commit(tx)
	e.checkOracle(tx, "STOCK", Eq("price", 3))
	if probes, _, _, _, _ := e.qm.Stats(); probes == 0 {
		t.Fatal("reopened index not used")
	}
}

func TestCreateIndexAbortUninstalls(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	e.seedStocks(20, 5)

	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if defs := e.qm.Defs(); len(defs) != 0 {
		t.Fatalf("aborted index still installed: %v", defs)
	}
	// The abort must have unwound the backfill entries too: recreate and
	// verify against the oracle.
	tx = e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	tx = e.begin()
	defer e.commit(tx)
	e.checkOracle(tx, "STOCK", Eq("price", 2))
}

// abortInWindow aborts ddl after registering a finisher that re-keys five
// STOCK objects to price 99 in a transaction of its own and probes for
// them. An abort releases its locks before it runs its finishers, and one
// registered after the DDL statement runs before the statement's own, so
// the writer and the probe run in the window between the two.
func (e *env) abortInWindow(ddl *txn.Txn) {
	e.t.Helper()
	snap, err := e.tm.BeginSnapshot() // ddl holds the class lock
	if err != nil {
		e.t.Fatal(err)
	}
	var seeded []event.OID
	if err := e.reg.ForEach(snap, "STOCK", false, func(inst *object.Instance) bool {
		seeded = append(seeded, inst.OID)
		return true
	}); err != nil {
		e.t.Fatal(err)
	}
	e.commit(snap)
	var inWindow error
	ddl.OnFinish(func(txn.Status) {
		w, err := e.tm.Begin()
		if err != nil {
			inWindow = err
			return
		}
		defer w.Commit()
		for _, oid := range seeded[:5] {
			inst, err := e.reg.Load(w, oid)
			if err != nil {
				inWindow = err
				return
			}
			inst.Attrs()["price"] = 99
			if err := e.reg.Persist(w, inst); err != nil {
				inWindow = fmt.Errorf("re-key in the abort's window: %w", err)
				return
			}
		}
		if ok, err := e.qm.Exists(w, "STOCK", false, Eq("price", 99)); err != nil || !ok {
			inWindow = fmt.Errorf("Exists(price = 99) in the abort's window = %v, %v", ok, err)
		}
	})
	if err := ddl.Abort(); err != nil {
		e.t.Fatal(err)
	}
	if inWindow != nil {
		e.t.Fatal(inWindow)
	}
}

// TestAbortedCreateIsNotUsed: in its abort's window an aborted create's
// index is neither maintained (its entry records are already undone) nor
// read.
func TestAbortedCreateIsNotUsed(t *testing.T) {
	e := newEnv(t)
	e.seedStocks(20, 5)
	ddl := e.begin()
	if _, err := e.qm.CreateIndex(ddl, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.abortInWindow(ddl)
	_, _, _, entries, _ := e.qm.Stats()
	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	if _, _, _, after, _ := e.qm.Stats(); after-entries != 20 {
		t.Fatalf("the re-create wrote %d entries, want 20", after-entries)
	}
	tx = e.begin()
	e.checkOracle(tx, "STOCK", Eq("price", 99))
	e.checkOracle(tx, "STOCK", Eq("price", 2))
	e.commit(tx)
	// Entry records the window's writer might have left for the dead index
	// are orphans at the next open.
	e = e.reopen()
	defer e.close()
	tx = e.begin()
	defer e.commit(tx)
	if n, err := e.qm.SweepOrphans(tx); err != nil || n != 0 {
		t.Fatalf("%d orphan entry records at reopen (%v)", n, err)
	}
}

// TestAbortedDropIsMaintained: in its abort's window an aborted drop's
// index is live again, so a write there is posted, the catalog keeps the
// index, and after the abort the index still answers like the extent.
func TestAbortedDropIsMaintained(t *testing.T) {
	e := newEnv(t)
	e.seedStocks(20, 5)
	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	ddl := e.begin()
	if err := e.qm.DropIndex(ddl, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.abortInWindow(ddl)
	if defs := e.qm.Defs(); len(defs) != 1 {
		t.Fatalf("after the aborted drop: %v, want the index", defs)
	}
	for _, reopen := range []bool{false, true} {
		if reopen {
			e = e.reopen()
		}
		tx = e.begin()
		probes, _, _, _, _ := e.qm.Stats()
		e.checkOracle(tx, "STOCK", Eq("price", 99))
		e.checkOracle(tx, "STOCK", Eq("price", 2))
		if now, _, _, _, _ := e.qm.Stats(); now != probes+2 {
			t.Fatalf("reopen %v: %d probes, want 2", reopen, now-probes)
		}
		e.commit(tx)
	}
	e.close()
}

func TestDropIndex(t *testing.T) {
	e := newEnv(t)
	e.seedStocks(50, 10)
	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	tx = e.begin()
	if err := e.qm.DropIndex(tx, "STOCK", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	if defs := e.qm.Defs(); len(defs) != 0 {
		t.Fatalf("dropped index still installed: %v", defs)
	}
	tx = e.begin()
	e.checkOracle(tx, "STOCK", Eq("price", 3)) // falls back to scan
	e.commit(tx)

	// After reopen, no orphaned entry records should resurface.
	e = e.reopen()
	defer e.close()
	if defs := e.qm.Defs(); len(defs) != 0 {
		t.Fatalf("dropped index resurrected: %v", defs)
	}
	tx = e.begin()
	if n, err := e.qm.SweepOrphans(tx); err != nil || n != 0 {
		t.Fatalf("orphans after clean drop: n=%d err=%v", n, err)
	}
	e.commit(tx)
}

func TestOrphanSweep(t *testing.T) {
	e := newEnv(t)
	// Plant an entry record for an index that never existed.
	tx := e.begin()
	key, _ := encodeKey(1)
	if _, err := tx.Insert(object.IndexFile(999), encodeEntry(999, 12345, key)); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)

	e = e.reopen()
	tx = e.begin()
	n, err := e.qm.SweepOrphans(tx)
	if err != nil || n != 1 {
		t.Fatalf("sweep: n=%d err=%v", n, err)
	}
	e.commit(tx)
	e = e.reopen()
	defer e.close()
	tx = e.begin()
	if n, err := e.qm.SweepOrphans(tx); err != nil || n != 0 {
		t.Fatalf("second sweep: n=%d err=%v", n, err)
	}
	e.commit(tx)
}

func TestSnapshotSeesOldKey(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	obj, err := e.reg.New(tx, "STOCK", map[string]any{"price": 5})
	if err != nil {
		t.Fatal(err)
	}
	e.commit(tx)

	snap, err := e.tm.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent committed re-key 5 -> 50.
	tx = e.begin()
	loaded, err := e.reg.Load(tx, obj.OID)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Attrs()["price"] = 50
	if err := e.reg.Persist(tx, loaded); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)

	// The snapshot still sees price=5 — via the graveyarded posting.
	if got := e.runOIDs(snap, Q{Class: "STOCK", Where: Eq("price", 5)}); len(got) != 1 {
		t.Fatalf("snapshot lost the old key: %v", got)
	}
	if got := e.runOIDs(snap, Q{Class: "STOCK", Where: Eq("price", 50)}); len(got) != 0 {
		t.Fatalf("snapshot sees the future: %v", got)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	// A fresh transaction sees the new key.
	tx = e.begin()
	defer e.commit(tx)
	if got := e.runOIDs(tx, Q{Class: "STOCK", Where: Eq("price", 50)}); len(got) != 1 {
		t.Fatalf("current view missing re-key: %v", got)
	}
}

// TestRekeyAwayAndBackKeepsPosting: an object re-keyed 1→2 and back 2→1 in
// two committed transactions gets its second key-1 entry record in the
// slot the first one vacated. The graveyard still holds the first posting;
// pruning it must not remove the live one that shares its (key, oid, RID).
func TestRekeyAwayAndBackKeepsPosting(t *testing.T) {
	for _, kind := range []IndexKind{HashIndex, OrderedIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			e := newEnv(t)
			defer e.close()
			tx := e.begin()
			if _, err := e.qm.CreateIndex(tx, "STOCK", "k", kind); err != nil {
				t.Fatal(err)
			}
			obj, err := e.reg.New(tx, "STOCK", map[string]any{"k": 1})
			if err != nil {
				t.Fatal(err)
			}
			e.commit(tx)
			setK := func(v int) {
				tx := e.begin()
				loaded, err := e.reg.Load(tx, obj.OID)
				if err != nil {
					t.Fatal(err)
				}
				loaded.Attrs()["k"] = v
				if err := e.reg.Persist(tx, loaded); err != nil {
					t.Fatal(err)
				}
				e.commit(tx)
			}
			ix := e.qm.lookupIndex("STOCK", "k", kind)
			key1, _ := encodeKey(1)
			first, _ := ix.get(key1, uint64(obj.OID))
			setK(2)
			setK(1)
			second, ok := ix.get(key1, uint64(obj.OID))
			if !ok || second.rid != first.rid {
				t.Fatalf("precondition: entry slot not reused (%v then %v)", first.rid, second.rid)
			}
			// No snapshot is open, so the floor is past both commits.
			e.qm.pruneGraves()

			tx = e.begin()
			defer e.commit(tx)
			if got := e.runOIDs(tx, Q{Class: "STOCK", Where: Eq("k", 1)}); len(got) != 1 || got[0] != uint64(obj.OID) {
				t.Fatalf("Eq(k,1) after prune: %v (plan: %s)", got, e.qm.Explain(Q{Class: "STOCK", Where: Eq("k", 1)}))
			}
			e.checkOracle(tx, "STOCK", Eq("k", 1))
			e.checkOracle(tx, "STOCK", Eq("k", 2))
		})
	}
}

func TestOperators(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	tx := e.begin()
	for i := 0; i < 10; i++ {
		if _, err := e.reg.New(tx, "STOCK", map[string]any{
			"sym": fmt.Sprintf("S%d", i), "price": i, "sector": fmt.Sprintf("sec%d", i%2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := e.reg.New(tx, "BOND", map[string]any{
			"sector": fmt.Sprintf("sec%d", i), "rating": 10 * (i + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.commit(tx)

	tx = e.begin()
	defer e.commit(tx)

	// Sort + limit + project.
	rows, err := e.qm.Run(tx, Q{Class: "STOCK", OrderBy: "price", Desc: true,
		Limit: 3, Project: []string{"sym"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Attrs["sym"] != "S9" || rows[2].Attrs["sym"] != "S7" {
		t.Fatalf("sort/limit/project: %+v", rows)
	}
	if _, ok := rows[0].Attrs["price"]; ok {
		t.Fatal("projection leaked price")
	}

	// Join STOCK -> BOND on sector.
	rows, err = e.qm.Run(tx, Q{Class: "STOCK", Where: Lt("price", 2),
		Join: &Join{Class: "BOND", LeftAttr: "sector", RightAttr: "sector"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("join rows: %+v", rows)
	}
	for _, r := range rows {
		if r.Attrs["BOND.rating"] == nil {
			t.Fatalf("join missing right attrs: %+v", r)
		}
	}

	// Group-aggregate.
	rows, err = e.qm.Run(tx, Q{Class: "STOCK", GroupBy: []string{"sector"},
		Aggs: []Agg{{Op: Count}, {Op: Sum, Attr: "price"}, {Op: Max, Attr: "price"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups: %+v", rows)
	}
	bySector := map[string]map[string]any{}
	for _, r := range rows {
		bySector[r.Attrs["sector"].(string)] = r.Attrs
	}
	if bySector["sec0"]["count"] != 5.0 || bySector["sec0"]["sum_price"] != 20.0 ||
		bySector["sec1"]["max_price"] != 9.0 {
		t.Fatalf("aggregates: %+v", bySector)
	}

	// Global aggregate.
	rows, err = e.qm.Run(tx, Q{Class: "STOCK", Aggs: []Agg{{Op: Avg, Attr: "price"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Attrs["avg_price"] != 4.5 {
		t.Fatalf("global avg: %+v", rows)
	}
}

func TestExists(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	e.seedStocks(50, 10)
	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	tx = e.begin()
	defer e.commit(tx)
	ok, err := e.qm.Exists(tx, "STOCK", false, Eq("price", 3))
	if err != nil || !ok {
		t.Fatalf("exists(price=3) = %v, %v", ok, err)
	}
	ok, err = e.qm.Exists(tx, "STOCK", false, Eq("price", 12345))
	if err != nil || ok {
		t.Fatalf("exists(price=12345) = %v, %v", ok, err)
	}
}

func TestDuplicateIndexRejected(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	tx := e.begin()
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", HashIndex); err == nil {
		t.Fatal("duplicate index accepted")
	}
	// A different kind on the same attribute is allowed.
	if _, err := e.qm.CreateIndex(tx, "STOCK", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	e.commit(tx)
	_ = event.OID(0)
}

// TestCanonicalValuesCompareWithoutAllocating: evaluating a comparison
// on a map row views the value as a slot and normalizes it unboxed, so it
// allocates nothing, whatever the value's type.
func TestCanonicalValuesCompareWithoutAllocating(t *testing.T) {
	for _, c := range []struct {
		p     Pred
		attrs map[string]any
	}{
		{Eq("x", 3.0), map[string]any{"x": 3.0}},
		{Lt("x", "b"), map[string]any{"x": "a"}},
		{Ne("x", true), map[string]any{"x": false}},
		{Eq("x", 3.0), map[string]any{"x": 3}},
		{Gt("x", 2), map[string]any{"x": int64(3)}},
		{Le("x", 200.0), map[string]any{"x": uint8(200)}},
		{Eq("x", 7), map[string]any{"x": event.OID(7)}},
	} {
		if !c.p.Eval(c.attrs) {
			t.Fatalf("%s is false on %v", c.p, c.attrs)
		}
		if n := testing.AllocsPerRun(100, func() { c.p.Eval(c.attrs) }); n != 0 {
			t.Fatalf("%s on %v made %v allocations, want 0", c.p, c.attrs, n)
		}
	}
}

// TestAvgCountsNumbersOnly: Avg divides the sum of a group's numbers by
// how many numbers it has, not by its non-nil values, and is nil for a
// group with none; Sum over no numbers is 0.
func TestAvgCountsNumbersOnly(t *testing.T) {
	e := newEnv(t)
	defer e.close()
	tx := e.begin()
	for _, o := range []map[string]any{
		{"g": "mixed", "price": 2.0},
		{"g": "mixed", "price": "x"},
		{"g": "mixed", "price": 4.0},
		{"g": "mixed", "price": true},
		{"g": "mixed"},
		{"g": "strings", "price": "y"},
	} {
		if _, err := e.reg.New(tx, "STOCK", o); err != nil {
			t.Fatal(err)
		}
	}
	e.commit(tx)
	tx = e.begin()
	defer e.commit(tx)
	rows, err := e.qm.Run(tx, Q{Class: "STOCK", GroupBy: []string{"g"},
		Aggs: []Agg{{Op: Avg, Attr: "price"}, {Op: Sum, Attr: "price"}, {Op: Count, Attr: "price"}}})
	if err != nil {
		t.Fatal(err)
	}
	got := map[any]map[string]any{}
	for _, r := range rows {
		got[r.Attrs["g"]] = r.Attrs
	}
	if m := got["mixed"]; m["avg_price"] != 3.0 || m["sum_price"] != 6.0 || m["count_price"] != 4.0 {
		t.Fatalf("mixed group: %v, want avg 3, sum 6, count 4", m)
	}
	if s := got["strings"]; s["avg_price"] != nil || s["sum_price"] != 0.0 || s["count_price"] != 1.0 {
		t.Fatalf("string-only group: %v, want avg nil, sum 0, count 1", s)
	}
}

// TestGroupedAggregateAllocatesPerGroup: γ reads slot rows in place, so a
// grouped Count+Sum over ten times the rows allocates no more than one
// allocation per group more (plus a small constant for the pages read).
func TestGroupedAggregateAllocatesPerGroup(t *testing.T) {
	const groups = 5
	allocs := func(n int) float64 {
		e := newEnv(t)
		defer e.close()
		tx := e.begin()
		for i := 0; i < n; i++ {
			if _, err := e.reg.New(tx, "STOCK", map[string]any{"grp": i % groups, "val": float64(i), "sym": fmt.Sprintf("S%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		e.commit(tx)
		snap, err := e.tm.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = snap.Commit() }()
		q := Q{Class: "STOCK", GroupBy: []string{"grp"}, Aggs: []Agg{{Op: Count}, {Op: Sum, Attr: "val"}}}
		return testing.AllocsPerRun(20, func() {
			if rows, err := e.qm.Run(snap, q); err != nil || len(rows) != groups {
				t.Fatalf("%d rows, %v", len(rows), err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	t.Logf("γ allocates %.0f over 200 rows, %.0f over 2000", small, large)
	if large-small > groups+4 {
		t.Fatalf("γ over 200 rows allocates %.0f, over 2000 rows %.0f: more than one per group more", small, large)
	}
}
