package object

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/storage"
	"repro/internal/txn"
)

func buildHierarchy(t *testing.T, r *Registry) {
	t.Helper()
	if _, err := r.DefineClass("SECURITY", "", false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineClass("STOCK", "SECURITY", false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineClass("BOND", "SECURITY", false); err != nil {
		t.Fatal(err)
	}
}

func TestExtentBothModes(t *testing.T) {
	for _, persistent := range []bool{false, true} {
		name := "memory"
		if persistent {
			name = "persistent"
		}
		t.Run(name, func(t *testing.T) {
			var reg *Registry
			var tx *txn.Txn
			if persistent {
				r, mgr, _ := persistEnv(t)
				buildHierarchy(t, r)
				reg = r
				tx, _ = mgr.Begin()
			} else {
				r, mgr := memEnv(t)
				buildHierarchy(t, r)
				reg = r
				tx, _ = mgr.Begin()
			}
			runExtentChecks(t, reg, tx)
			_ = tx.Commit()
		})
	}
}

func runExtentChecks(t *testing.T, r *Registry, tx *txn.Txn) {
	t.Helper()
	mk := func(class string, v int) {
		if _, err := r.New(tx, class, map[string]any{"v": v}); err != nil {
			t.Fatal(err)
		}
	}
	mk("STOCK", 1)
	mk("BOND", 2)
	mk("STOCK", 3)
	mk("SECURITY", 4)

	collect := func(class string, subs bool) []int {
		var got []int
		if err := r.ForEach(tx, class, subs, func(obj *Instance) bool {
			got = append(got, obj.Attr("v").(int))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := collect("STOCK", false); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("STOCK extent: %v", got)
	}
	if got := collect("SECURITY", false); len(got) != 1 || got[0] != 4 {
		t.Fatalf("SECURITY exact extent: %v", got)
	}
	if got := collect("SECURITY", true); len(got) != 4 {
		t.Fatalf("SECURITY subtree extent: %v", got)
	}
	if got := collect("BOND", true); len(got) != 1 || got[0] != 2 {
		t.Fatalf("BOND extent: %v", got)
	}

	// Early stop.
	n := 0
	if err := r.ForEach(tx, "SECURITY", true, func(*Instance) bool {
		n++
		return n < 2
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

// defineExtentClasses registers two sibling classes and a subclass.
func defineExtentClasses(t *testing.T, r *Registry) {
	t.Helper()
	for _, c := range [][2]string{{"STOCK", ""}, {"BOND", ""}, {"PREF", "STOCK"}} {
		if _, err := r.DefineClass(c[0], c[1], false); err != nil {
			t.Fatal(err)
		}
	}
}

// extentOIDs returns the OIDs ForEach visits.
func extentOIDs(t *testing.T, r *Registry, tx *txn.Txn, class string, subs bool) []event.OID {
	t.Helper()
	var oids []event.OID
	if err := r.ForEach(tx, class, subs, func(obj *Instance) bool {
		oids = append(oids, obj.OID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return oids
}

// TestExtentCostIsTheExtents: a scan of one class reads that class's
// pages, however large the other classes grow, and the pages its class's
// objects fill.
func TestExtentCostIsTheExtents(t *testing.T) {
	r, tm, _ := persistEnv(t)
	defineExtentClasses(t, r)
	add := func(class string, n int) {
		tx, err := tm.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := r.New(tx, class, map[string]any{"i": float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	pagesRead := func() int {
		tx, err := tm.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Commit()
		scan := r.ScanExtent(tx, "BOND", false)
		n := 0
		for scan.Next() {
			n++
		}
		if scan.Err() != nil || n != 100 {
			t.Fatalf("BOND scan read %d objects (%v), want 100", n, scan.Err())
		}
		return scan.Pages()
	}
	add("BOND", 100)
	add("STOCK", 100)
	small := pagesRead()
	add("STOCK", 5000)
	large := pagesRead()
	if small != large {
		t.Fatalf("a BOND scan reads %d pages beside 100 STOCK objects but %d beside 5 100: it pays for other classes", small, large)
	}
	if files := len(r.store.FilePages(ClassFile("BOND"))); small != files {
		t.Fatalf("a BOND scan read %d pages of the %d in BOND's file", small, files)
	}
}

// TestExtentsUnderConcurrentNewAndQuery runs creators against snapshot
// extent scans (run it with -race); once they stop, the scan and the
// directory hold the committed objects.
func TestExtentsUnderConcurrentNewAndQuery(t *testing.T) {
	r, tm, _ := persistEnv(t)
	defineExtentClasses(t, r)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tx, err := tm.Begin()
			if err == nil {
				_, err = r.New(tx, []string{"STOCK", "PREF"}[i%2], map[string]any{"i": float64(i)})
			}
			if err == nil && i%5 == 0 {
				err = tx.Abort()
			} else if err == nil {
				err = tx.Commit()
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tx, err := tm.BeginSnapshot()
			if err == nil {
				err = r.ForEach(tx, "STOCK", true, func(*Instance) bool { return true })
			}
			if err == nil {
				err = tx.Commit()
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tx, err := tm.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	if got := len(extentOIDs(t, r, tx, "STOCK", true)); got != 160 {
		t.Fatalf("STOCK subtree holds %d objects, want the 160 committed", got)
	}
	r.oidMu.RLock()
	entries := len(r.dir)
	r.oidMu.RUnlock()
	if entries != 160 {
		t.Fatalf("the directory holds %d objects, want the 160 committed", entries)
	}
}

// TestMovesForgottenAtTheFloor: a relocating update leaves the object's
// old RID in the directory for older snapshots, and the graveyard forgets
// it once no snapshot is that old — with updates alone, no New or Delete
// to drive the pruning.
func TestMovesForgottenAtTheFloor(t *testing.T) {
	r, tm, _ := persistEnv(t)
	defineExtentClasses(t, r)
	tx, err := tm.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var objs []*Instance
	for i := 0; i < 3*gravePruneEvery; i++ {
		obj, err := r.New(tx, "BOND", map[string]any{"pad": strings.Repeat("x", 80)})
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, obj := range objs {
		tx, err := tm.Begin()
		if err != nil {
			t.Fatal(err)
		}
		before, _ := r.lookupRef(obj.OID)
		obj.attrs["pad"] = strings.Repeat("y", 3000)
		if err := r.Persist(tx, obj); err != nil {
			t.Fatal(err)
		}
		if after, _ := r.lookupRef(obj.OID); after.rid != before.rid {
			moved++
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	r.oidMu.RLock()
	past, graves := len(r.past), len(r.grave)
	r.oidMu.RUnlock()
	if moved < 2*gravePruneEvery {
		t.Fatalf("only %d of %d updates moved their record", moved, len(objs))
	}
	if past >= gravePruneEvery || graves >= gravePruneEvery {
		t.Fatalf("after %d committed moves and no snapshot the directory remembers %d old locations (%d graves)", moved, past, graves)
	}
}

// followerEnv opens a follower store with a registry of the extent
// classes that its apply hook keeps current.
func followerEnv(t *testing.T) (*Registry, *txn.Manager, *storage.Store) {
	t.Helper()
	fst, err := storage.Open(storage.Options{Dir: t.TempDir(), PoolSize: 16, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	freg := NewRegistry(nil, fst)
	defineExtentClasses(t, freg)
	fst.SetApplyHook(freg.ApplyRecord)
	return freg, txn.NewManager(fst, lockmgr.New()), fst
}

// ship feeds the follower fst everything the leader st has logged past
// fst's end.
func ship(t *testing.T, st, fst *storage.Store) {
	t.Helper()
	if err := st.FlushLog(); err != nil {
		t.Fatal(err)
	}
	cur := st.LogCursor(fst.LogEnd())
	defer cur.Close()
	for {
		base, data, n, err := cur.ReadBatch(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return
		}
		if _, err := fst.ReplIngest(base, data); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMoveBackKeepsTheObject moves an object from R1 to another page and,
// in a later commit, back onto R1's slot, with no pruning in between. The
// first move's grave names R1 — the object's location again — so
// forgetting it must not forget the object, on the leader or on a
// follower that applied the same moves.
func TestMoveBackKeepsTheObject(t *testing.T) {
	r, tm, _ := persistEnv(t)
	defineExtentClasses(t, r)
	freg, ftm, fst := followerEnv(t)
	run := func(fn func(tx *txn.Txn)) {
		t.Helper()
		tx, err := tm.Begin()
		if err != nil {
			t.Fatal(err)
		}
		fn(tx)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	newBond := func(tx *txn.Txn, n int) *Instance {
		t.Helper()
		obj, err := r.New(tx, "BOND", map[string]any{"pad": strings.Repeat("x", n)})
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	grow := func(obj *Instance, n int) storage.RID {
		t.Helper()
		run(func(tx *txn.Txn) {
			obj.attrs["pad"] = strings.Repeat("y", n)
			if err := r.Persist(tx, obj); err != nil {
				t.Fatal(err)
			}
		})
		rid, _ := r.lookupRef(obj.OID)
		return rid.rid
	}

	// X first on a full page P, then moved to a fresh page Q, which a
	// second object fills; P is emptied; X outgrows Q and returns to P,
	// into the first free slot: its own.
	var x *Instance
	var others []*Instance
	run(func(tx *txn.Txn) {
		x = newBond(tx, 700)
		for i := 0; i < 4; i++ {
			others = append(others, newBond(tx, 700))
		}
	})
	r1, _ := r.lookupRef(x.OID)
	if q := grow(x, 1500); q.Page == r1.rid.Page {
		t.Fatalf("setup: growing X kept it on page %d", q.Page)
	}
	run(func(tx *txn.Txn) { newBond(tx, 1900) })
	run(func(tx *txn.Txn) {
		for _, o := range others {
			if err := r.Delete(tx, o.OID); err != nil {
				t.Fatal(err)
			}
		}
	})
	if back := grow(x, 2500); back != r1.rid {
		t.Fatalf("setup: X moved to %v, not back to %v", back, r1.rid)
	}

	ship(t, r.store, fst)
	for _, side := range []struct {
		name string
		reg  *Registry
		tm   *txn.Manager
	}{{"leader", r, tm}, {"follower", freg, ftm}} {
		side.reg.pruneGraves()
		side.reg.oidMu.RLock()
		graves, past := len(side.reg.grave), len(side.reg.past)
		side.reg.oidMu.RUnlock()
		if graves != 0 || past != 0 {
			t.Fatalf("%s: %d graves and %d past locations left after pruning with no snapshot", side.name, graves, past)
		}
		tx, err := side.tm.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		obj, err := side.reg.Load(tx, x.OID)
		if err != nil {
			t.Fatalf("%s: X lost after its graves were pruned: %v", side.name, err)
		}
		if got := obj.attrs["pad"]; got != strings.Repeat("y", 2500) {
			t.Fatalf("%s: X's pad has %d bytes, want 2500", side.name, len(got.(string)))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFollowerSnapshotOutlivesAMoveAndADelete opens a follower snapshot,
// then applies a commit that moves one object and deletes another. Until
// the snapshot ends, pruning must keep the old location and the deleted
// object's entry: the snapshot still sees both where they were.
func TestFollowerSnapshotOutlivesAMoveAndADelete(t *testing.T) {
	r, tm, _ := persistEnv(t)
	defineExtentClasses(t, r)
	freg, ftm, fst := followerEnv(t)
	tx, err := tm.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var objs []*Instance
	for i := 0; i < 5; i++ {
		obj, err := r.New(tx, "BOND", map[string]any{"pad": strings.Repeat("x", 700)})
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ship(t, r.store, fst)
	sn, err := ftm.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Commit()

	moved, gone := objs[0], objs[1]
	if tx, err = tm.Begin(); err != nil {
		t.Fatal(err)
	}
	before, _ := r.lookupRef(moved.OID)
	moved.attrs["pad"] = strings.Repeat("y", 2500)
	if err := r.Persist(tx, moved); err != nil {
		t.Fatal(err)
	}
	if after, _ := r.lookupRef(moved.OID); after.rid == before.rid {
		t.Fatal("setup: the growing update did not move the record")
	}
	if err := r.Delete(tx, gone.OID); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ship(t, r.store, fst)
	freg.pruneGraves()
	for _, obj := range []*Instance{moved, gone} {
		got, err := freg.Load(sn, obj.OID)
		if err != nil {
			t.Fatalf("the snapshot lost %v after pruning: %v", obj.OID, err)
		}
		if pad := got.attrs["pad"]; pad != strings.Repeat("x", 700) {
			t.Fatalf("the snapshot reads %v's pad at %d bytes, want its 700", obj.OID, len(pad.(string)))
		}
	}
}
