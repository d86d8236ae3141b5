package object_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/txn"
)

// collidingClasses returns two class names with one file: a birthday
// search over the 31-bit class file ids, some 50 000 names long.
func collidingClasses() (string, string) {
	seen := make(map[storage.FileID]string)
	for i := 0; ; i++ {
		name := fmt.Sprintf("C%d", i)
		f := object.ClassFile(name)
		if prev, ok := seen[f]; ok {
			return prev, name
		}
		seen[f] = name
	}
}

// diffEnv is a leader — registry and query engine over a store it can
// close, crash and reopen — and a follower fed by the leader's shipped log.
type diffEnv struct {
	t       *testing.T
	dir     string
	classes [][2]string // name, superclass; supers first
	st      *storage.Store
	tm      *txn.Manager
	reg     *object.Registry
	qm      *query.Manager
	fst     *storage.Store
	ftm     *txn.Manager
	freg    *object.Registry
	fqm     *query.Manager
	oids    []event.OID // every object ever created, committed or not
	snaps   []*txn.Txn  // leader snapshots opened at earlier steps
}

func (e *diffEnv) define(r *object.Registry) {
	for _, c := range e.classes {
		if _, err := r.DefineClass(c[0], c[1], false); err != nil {
			e.t.Fatal(err)
		}
	}
}

// open (re)opens the leader: the directory is rebuilt by Bootstrap.
func (e *diffEnv) open() {
	st, err := storage.Open(storage.Options{Dir: e.dir, PoolSize: 16})
	if err != nil {
		e.t.Fatal(err)
	}
	e.st, e.tm, e.reg = st, txn.NewManager(st, lockmgr.New()), object.NewRegistry(nil, st)
	e.qm = query.NewManager(st, e.reg)
	e.reg.SetIndexHook(e.qm)
	tx := e.begin()
	if err := e.reg.InitCatalog(tx); err != nil {
		e.t.Fatal(err)
	}
	e.commit(tx)
	if err := e.qm.Bootstrap(); err != nil {
		e.t.Fatal(err)
	}
	e.define(e.reg)
}

// closeSnaps ends the snapshots a restart would lose.
func (e *diffEnv) closeSnaps() {
	for _, sn := range e.snaps {
		e.commit(sn)
	}
	e.snaps = nil
}

func (e *diffEnv) reopen() {
	e.closeSnaps()
	if err := e.st.Close(); err != nil {
		e.t.Fatal(err)
	}
	e.open()
}

// crash leaves a transaction in flight — new objects, a growing update, a
// delete — forces the log and abandons the leader unclosed, as a process
// that died; the reopen's recovery rolls the transaction back.
func (e *diffEnv) crash(rng *rand.Rand) {
	e.closeSnaps()
	tx := e.begin()
	for i := 0; i < 3; i++ {
		obj, err := e.reg.New(tx, e.classes[rng.IntN(len(e.classes))][0], map[string]any{"v": -1.0})
		if err != nil {
			e.t.Fatal(err)
		}
		e.oids = append(e.oids, obj.OID)
	}
	for _, oid := range e.pick(tx, rng, 2) {
		e.grow(tx, rng, oid)
	}
	if oids := e.pick(tx, rng, 1); len(oids) > 0 {
		if err := e.reg.Delete(tx, oids[0]); err != nil {
			e.t.Fatal(err)
		}
	}
	if err := e.st.FlushLog(); err != nil {
		e.t.Fatal(err)
	}
	e.open()
}

func (e *diffEnv) begin() *txn.Txn {
	tx, err := e.tm.Begin()
	if err != nil {
		e.t.Fatal(err)
	}
	return tx
}

func (e *diffEnv) commit(tx *txn.Txn) {
	if err := tx.Commit(); err != nil {
		e.t.Fatal(err)
	}
}

// pick returns up to n distinct objects tx sees.
func (e *diffEnv) pick(tx *txn.Txn, rng *rand.Rand, n int) []event.OID {
	var live []event.OID
	for _, oid := range e.oids {
		if _, err := e.reg.Load(tx, oid); err == nil {
			live = append(live, oid)
		}
	}
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	return live[:min(n, len(live))]
}

// grow pads oid's record so it no longer fits where it is, and reports
// whether the update moved it.
func (e *diffEnv) grow(tx *txn.Txn, rng *rand.Rand, oid event.OID) bool {
	obj, err := e.reg.Load(tx, oid)
	if errors.Is(err, object.ErrUnknownObject) {
		return false // deleted by tx earlier
	}
	if err != nil {
		e.t.Fatal(err)
	}
	before, _ := e.reg.RIDOf(oid)
	obj.Attrs()["pad"] = strings.Repeat("x", 600+rng.IntN(1400))
	if err := e.reg.Persist(tx, obj); err != nil {
		e.t.Fatal(err)
	}
	after, _ := e.reg.RIDOf(oid)
	return after != before
}

// ship feeds the follower everything the leader has flushed past its end.
func (e *diffEnv) ship() {
	if err := e.st.FlushLog(); err != nil {
		e.t.Fatal(err)
	}
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

// inExtent reports whether an object of class c belongs to the extent of
// class (with its subclasses when subs is set).
func (e *diffEnv) inExtent(c, class string, subs bool) bool {
	for c != "" {
		if c == class {
			return true
		}
		if !subs {
			return false
		}
		i := slices.IndexFunc(e.classes, func(x [2]string) bool { return x[0] == c })
		c = e.classes[i][1]
	}
	return false
}

// verify requires ForEach and an extent Query under tx to return exactly
// the objects OID-addressed Load sees under tx, with the same attributes,
// for every class with and without its subclasses.
func (e *diffEnv) verify(label string, reg *object.Registry, qm *query.Manager, tx *txn.Txn) {
	e.t.Helper()
	loaded := make(map[event.OID]*object.Instance)
	for _, oid := range e.oids {
		obj, err := reg.Load(tx, oid)
		if errors.Is(err, object.ErrUnknownObject) {
			continue
		}
		if err != nil {
			e.t.Fatalf("%s: Load(%v): %v", label, oid, err)
		}
		loaded[oid] = obj
	}
	for _, c := range e.classes {
		for _, subs := range []bool{false, true} {
			what := fmt.Sprintf("%s: %s (subclasses %v)", label, c[0], subs)
			want := make(map[event.OID]map[string]any)
			for oid, obj := range loaded {
				if e.inExtent(obj.Class.Name, c[0], subs) {
					want[oid] = obj.Attrs()
				}
			}
			got := make(map[event.OID]map[string]any)
			var last event.OID
			if err := reg.ForEach(tx, c[0], subs, func(obj *object.Instance) bool {
				if obj.OID <= last {
					e.t.Fatalf("%s: ForEach visited %v after %v", what, obj.OID, last)
				}
				last, got[obj.OID] = obj.OID, obj.Attrs()
				return true
			}); err != nil {
				e.t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				e.t.Fatalf("%s: ForEach returned %d objects %v, Load sees %d %v", what, len(got), keys(got), len(want), keys(want))
			}
			rows, err := qm.Run(tx, query.Q{Class: c[0], Subclasses: subs})
			if err != nil {
				e.t.Fatal(err)
			}
			clear(got)
			for _, row := range rows {
				got[row.OID] = row.Attrs
			}
			if len(got) != len(rows) || !reflect.DeepEqual(got, want) {
				e.t.Fatalf("%s: Query returned %d rows %v, Load sees %d %v", what, len(rows), keys(got), len(want), keys(want))
			}
		}
	}
}

func keys(m map[event.OID]map[string]any) []event.OID {
	out := make([]event.OID, 0, len(m))
	for oid := range m {
		out = append(out, oid)
	}
	slices.Sort(out)
	return out
}

// check verifies the leader under a locked transaction, a fresh snapshot
// and every snapshot opened at an earlier step, then ships the log and
// verifies the follower under a fresh snapshot.
func (e *diffEnv) check(label string) {
	e.t.Helper()
	tx := e.begin()
	e.verify(label+", locked", e.reg, e.qm, tx)
	e.commit(tx)
	for i, sn := range append([]*txn.Txn{nil}, e.snaps...) {
		if sn == nil {
			var err error
			if sn, err = e.tm.BeginSnapshot(); err != nil {
				e.t.Fatal(err)
			}
			defer e.commit(sn)
		}
		e.verify(fmt.Sprintf("%s, snapshot %d", label, i), e.reg, e.qm, sn)
	}
	e.ship()
	fsn, err := e.ftm.BeginSnapshot()
	if err != nil {
		e.t.Fatal(err)
	}
	e.verify(label+", follower", e.freg, e.fqm, fsn)
	e.commit(fsn)
}

// TestExtentsMatchDirectory: extent scans read class files a page at a
// time, and OID-addressed Load goes through the directory; the two must
// agree. A seeded mix of inserts, growing (relocating) updates and deletes
// — committed, aborted, or rolled back in a subtransaction — runs with
// snapshots opened at random points, clean and crashed reopens, and a
// follower fed by the leader's log. After every step ForEach and an
// extent Query return exactly what Load sees, for every class with and
// without its subclasses, on the leader (locked, fresh snapshot, every
// older open snapshot) and on the follower. Two of the classes share one
// file, and one of them sits in another class's subtree.
func TestExtentsMatchDirectory(t *testing.T) {
	const seed, steps = 32, 120
	rng := rand.New(rand.NewPCG(seed, 0))
	ca, cb := collidingClasses()
	e := &diffEnv{t: t, dir: t.TempDir(), classes: [][2]string{
		{"STOCK", ""}, {"BOND", ""}, {"PREF", "STOCK"}, {ca, ""}, {cb, "STOCK"},
	}}
	e.open()
	t.Cleanup(func() { e.closeSnaps() })
	fst, err := storage.Open(storage.Options{Dir: t.TempDir(), PoolSize: 16, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	e.fst, e.ftm, e.freg = fst, txn.NewManager(fst, lockmgr.New()), object.NewRegistry(nil, fst)
	e.fqm = query.NewManager(fst, e.freg)
	e.define(e.freg)
	fst.SetApplyHook(e.freg.ApplyRecord)

	relocated, crashed := 0, 0
	for step := 0; step < steps; step++ {
		var what string
		tx := e.begin()
		in := tx
		nested := rng.IntN(3) == 0
		if nested {
			if in, err = tx.BeginSub(); err != nil {
				t.Fatal(err)
			}
		}
		switch p := rng.IntN(100); {
		case p < 45:
			for i := rng.IntN(6) + 1; i > 0; i-- {
				obj, err := e.reg.New(in, e.classes[rng.IntN(len(e.classes))][0], map[string]any{"v": float64(step)})
				if err != nil {
					t.Fatal(err)
				}
				e.oids = append(e.oids, obj.OID)
			}
			what = "New"
		case p < 75:
			for _, oid := range e.pick(in, rng, rng.IntN(3)+1) {
				if e.grow(in, rng, oid) {
					relocated++
				}
			}
			what = "growing Persist"
		case p < 92:
			for _, oid := range e.pick(in, rng, rng.IntN(3)+1) {
				if err := e.reg.Delete(in, oid); err != nil {
					t.Fatal(err)
				}
			}
			what = "Delete"
		default:
			what = "nothing"
		}
		if nested {
			if rng.IntN(2) == 0 {
				err, what = in.Abort(), what+" rolled back in a subtransaction"
			} else {
				err = in.Commit()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if rng.IntN(4) == 0 {
			err, what = tx.Abort(), what+", aborted"
		} else {
			err = tx.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
		switch p := rng.IntN(100); {
		case p < 4:
			e.reopen()
			what += ", clean reopen"
		case p < 8:
			e.crash(rng)
			crashed++
			what += ", crashed reopen"
		case p < 30:
			sn, err := e.tm.BeginSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			e.snaps = append(e.snaps, sn)
		case p < 40 && len(e.snaps) > 0:
			e.commit(e.snaps[0])
			e.snaps = e.snaps[1:]
		}
		e.check(fmt.Sprintf("step %d (%s)", step, what))
	}
	if relocated == 0 || crashed == 0 {
		t.Fatalf("%d relocations and %d crashes: the mix left a path unchecked", relocated, crashed)
	}
	tx := e.begin()
	defer e.commit(tx)
	for _, c := range []string{"STOCK", ca} {
		if n, _ := e.qm.Run(tx, query.Q{Class: c}); len(n) == 0 {
			t.Fatalf("the run ended with no %s objects; the mix checked nothing", c)
		}
	}
}
