package object

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
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

// extentEnv is a leader registry over a store it can close and reopen, and
// a follower registry kept current by the leader's shipped log.
type extentEnv struct {
	t        *testing.T
	dir      string
	st       *storage.Store
	tm       *txn.Manager
	r        *Registry
	fst      *storage.Store
	follower *Registry
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

func newExtentEnv(t *testing.T) *extentEnv {
	e := &extentEnv{t: t, dir: t.TempDir()}
	e.open()
	fst, err := storage.Open(storage.Options{Dir: t.TempDir(), PoolSize: 16, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	e.fst, e.follower = fst, NewRegistry(nil, fst)
	defineExtentClasses(t, e.follower)
	fst.SetApplyHook(e.follower.ApplyRecord)
	return e
}

// open (re)opens the leader: a reopen rebuilds the directory (Bootstrap).
func (e *extentEnv) open() {
	st, err := storage.Open(storage.Options{Dir: e.dir, PoolSize: 16})
	if err != nil {
		e.t.Fatal(err)
	}
	e.st, e.tm, e.r = st, txn.NewManager(st, lockmgr.New()), NewRegistry(nil, st)
	defineExtentClasses(e.t, e.r)
	tx := e.begin()
	if err := e.r.InitCatalog(tx); err != nil {
		e.t.Fatal(err)
	}
	e.commit(tx)
}

func (e *extentEnv) reopen() {
	if err := e.st.Close(); err != nil {
		e.t.Fatal(err)
	}
	e.open()
}

func (e *extentEnv) begin() *txn.Txn {
	tx, err := e.tm.Begin()
	if err != nil {
		e.t.Fatal(err)
	}
	return tx
}

func (e *extentEnv) commit(tx *txn.Txn) {
	if err := tx.Commit(); err != nil {
		e.t.Fatal(err)
	}
}

// ship feeds the follower everything the leader has logged past its end.
func (e *extentEnv) ship() {
	cur := e.st.LogCursor(e.fst.LogEnd())
	defer cur.Close()
	for {
		base, data, n, err := cur.ReadBatch(1 << 20)
		if err != nil {
			e.t.Fatal(err)
		}
		if n == 0 {
			return
		}
		if _, err := e.fst.ReplIngest(base, data); err != nil {
			e.t.Fatal(err)
		}
	}
}

// referenceExtent filters the whole directory by class, the way extent
// scans worked before per-class member sets.
func referenceExtent(r *Registry, class string, subs bool) []event.OID {
	r.oidMu.RLock()
	var cands []objRef
	var oids []event.OID
	for oid, ref := range r.dir.refs {
		cands = append(cands, ref)
		oids = append(oids, event.OID(oid))
	}
	r.oidMu.RUnlock()
	out := []event.OID{}
	for i, ref := range cands {
		if r.classMatches(ref.class, class, subs) {
			out = append(out, oids[i])
		}
	}
	slices.Sort(out)
	return out
}

func checkExtents(t *testing.T, r *Registry, step string) {
	t.Helper()
	for _, class := range []string{"STOCK", "BOND", "PREF"} {
		for _, subs := range []bool{false, true} {
			got, want := r.ExtentOIDs(class, subs), referenceExtent(r, class, subs)
			if !slices.Equal(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s: ExtentOIDs(%s, %v) = %v, directory says %v", step, class, subs, got, want)
			}
		}
	}
}

// TestExtentsMatchDirectory drives a seeded mix of every directory write —
// New committed and aborted (nested subtransactions too), a Persist that
// relocates its record, Delete followed by pruning at the snapshot floor,
// a reopen — and after each step requires the per-class extents to equal
// the whole directory filtered by class, on the leader and on a follower
// fed by ApplyRecord.
func TestExtentsMatchDirectory(t *testing.T) {
	const seed, steps = 24, 150
	rng := rand.New(rand.NewPCG(seed, 0))
	e := newExtentEnv(t)
	classes := []string{"STOCK", "BOND", "PREF"}
	var live []event.OID
	relocated := 0
	for step := 0; step < steps; step++ {
		var what string
		switch p := rng.IntN(100); {
		case p < 40: // New, committed or aborted, maybe from a subtransaction
			tx := e.begin()
			in := tx
			nested := rng.IntN(2) == 0
			if nested {
				sub, err := tx.BeginSub()
				if err != nil {
					t.Fatal(err)
				}
				in = sub
			}
			var made []event.OID
			for i := rng.IntN(4) + 1; i > 0; i-- {
				obj, err := e.r.New(in, classes[rng.IntN(len(classes))], map[string]any{"v": float64(step)})
				if err != nil {
					t.Fatal(err)
				}
				made = append(made, obj.OID)
			}
			subAbort := nested && rng.IntN(3) == 0
			if nested {
				var err error
				if subAbort {
					err = in.Abort()
				} else {
					err = in.Commit()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if rng.IntN(3) == 0 {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				what = "aborted New"
			} else {
				e.commit(tx)
				if !subAbort {
					live = append(live, made...)
				}
				what = "committed New"
			}
		case p < 65 && len(live) > 0: // Persist that grows the record
			oid := live[rng.IntN(len(live))]
			tx := e.begin()
			obj, err := e.r.Load(tx, oid)
			if err != nil {
				t.Fatal(err)
			}
			before, _ := e.r.lookupRef(oid)
			obj.attrs["pad"] = strings.Repeat("x", 600+rng.IntN(1400))
			if err := e.r.Persist(tx, obj); err != nil {
				t.Fatal(err)
			}
			if after, _ := e.r.lookupRef(oid); after.rid != before.rid {
				relocated++
			}
			if rng.IntN(4) == 0 {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				what = "aborted Persist"
			} else {
				e.commit(tx)
				what = "committed Persist"
			}
		case p < 90 && len(live) > 0: // Delete, then prune at the floor
			i := rng.IntN(len(live))
			tx := e.begin()
			if err := e.r.Delete(tx, live[i]); err != nil {
				t.Fatal(err)
			}
			e.commit(tx)
			live = slices.Delete(live, i, i+1)
			e.r.pruneGraves()
			what = "Delete and prune"
		default:
			e.reopen()
			what = "reopen"
		}
		label := fmt.Sprintf("step %d (%s)", step, what)
		checkExtents(t, e.r, label)
		e.ship()
		e.follower.pruneGraves()
		checkExtents(t, e.follower, label+" on the follower")
	}
	if relocated == 0 {
		t.Fatal("no Persist relocated its record; the relocation path went unchecked")
	}
	if got := e.r.ExtentOIDs("STOCK", true); len(got) == 0 {
		t.Fatal("the run ended with an empty STOCK subtree; the mix checked nothing")
	}
}

// TestExtentCostIsTheExtents: ExtentOIDs for one class allocates one slice
// the size of that class's extent, however large the rest of the directory.
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
	bytesPer := func() uint64 {
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if len(r.ExtentOIDs("BOND", false)) != 100 {
				t.Fatal("BOND extent lost members")
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	add("BOND", 100)
	add("STOCK", 100)
	small := bytesPer()
	add("STOCK", 5000)
	large := bytesPer()
	if allocs := testing.AllocsPerRun(20, func() { r.ExtentOIDs("BOND", false) }); allocs != 1 {
		t.Fatalf("ExtentOIDs made %v allocations, want the one result slice", allocs)
	}
	if large > small+small/4 {
		t.Fatalf("ExtentOIDs(BOND) allocates %d bytes beside 100 STOCK objects but %d beside 5 100: it pays for other classes", small, large)
	}
}

// TestExtentsUnderConcurrentNewAndQuery runs creators against snapshot
// extent scans (run it with -race); once they stop, extents and directory
// agree.
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
	checkExtents(t, r, "after the concurrent run")
	if got := len(r.ExtentOIDs("STOCK", true)); got != 160 {
		t.Fatalf("STOCK subtree holds %d objects, want the 160 committed", got)
	}
}
