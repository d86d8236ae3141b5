package detector

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/event"
)

// The shared transaction window against the per-node window it replaced.
// A*(beginTransaction, e, preCommitTransaction) reads the window shared by
// its pair of transaction events; A*(xb, e, xp), over two explicit events
// signalled in lockstep with the transaction events, keeps a window of its
// own and is the oracle. Seeded random schedules drive both and every step
// must leave them with the same emissions and the same stored occurrences.

type diffEmission struct {
	expr   int
	ctx    Context
	leaves []*event.Occurrence
}

type diffRig struct {
	t      *testing.T
	d      *Detector
	nExpr  int
	shared []*aStarNode // def_i = A*(beginTransaction, e_i, preCommitTransaction)
	own    []*aStarNode // own_i = A*(xb, e_i, xp)
	win    *txnWindow
	got    [2][]diffEmission // emissions of the shared group, of the own group
	unsub  [2][][numContexts]func()
	trace  []string
	// hidden: a FlushEvent on a member left initiators in the window that
	// the member no longer sees (its twin dropped them); it lasts until
	// the window empties.
	hidden bool
}

func newDiffRig(t *testing.T, nExpr int) *diffRig {
	r := &diffRig{t: t, d: New(), nExpr: nExpr}
	d := r.d
	bt, _ := d.TransactionEvent(event.BeginTransaction)
	pc, _ := d.TransactionEvent(event.PreCommit)
	xb, err := d.DefineExplicit("xb")
	if err != nil {
		t.Fatal(err)
	}
	xp, err := d.DefineExplicit("xp")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nExpr; i++ {
		e, err := d.DefineExplicit(fmt.Sprintf("e%d", i))
		if err != nil {
			t.Fatal(err)
		}
		def, err := d.AStar(fmt.Sprintf("def%d", i), bt, e, pc)
		if err != nil {
			t.Fatal(err)
		}
		own, err := d.AStar(fmt.Sprintf("own%d", i), xb, e, xp)
		if err != nil {
			t.Fatal(err)
		}
		r.shared = append(r.shared, def.(*aStarNode))
		r.own = append(r.own, own.(*aStarNode))
	}
	r.win = d.txnWindows[[2]*PrimitiveNode{bt.(*PrimitiveNode), pc.(*PrimitiveNode)}]
	if r.win == nil || r.shared[0].shared != r.win || r.own[0].shared != nil {
		t.Fatal("A* over two transaction events did not take the shared window, or A* over explicit events did")
	}
	r.unsub[0] = make([][numContexts]func(), nExpr)
	r.unsub[1] = make([][numContexts]func(), nExpr)
	return r
}

func (r *diffRig) logf(format string, args ...any) {
	r.trace = append(r.trace, fmt.Sprintf(format, args...))
}

// toggle subscribes or unsubscribes expression i in ctx, on both sides.
func (r *diffRig) toggle(i int, ctx Context) {
	for g, prefix := range [2]string{"def", "own"} {
		if u := r.unsub[g][i][ctx]; u != nil {
			u()
			r.unsub[g][i][ctx] = nil
			continue
		}
		g, i := g, i
		u, err := r.d.Subscribe(fmt.Sprintf("%s%d", prefix, i), ctx, SubscriberFunc(func(occ *event.Occurrence, c Context) {
			r.got[g] = append(r.got[g], diffEmission{i, c, occ.Leaves()})
		}))
		if err != nil {
			r.t.Fatal(err)
		}
		r.unsub[g][i][ctx] = u
	}
	r.logf("toggle %d/%v", i, ctx)
}

func (r *diffRig) explicit(name string, txn uint64) {
	if err := r.d.SignalExplicit(name, nil, txn); err != nil {
		r.t.Fatal(err)
	}
}

// check compares the two sides after a step; from is how many emissions
// had been compared already.
func (r *diffRig) check(from int) int {
	t := r.t
	fail := func(format string, args ...any) {
		t.Helper()
		for _, l := range r.trace {
			t.Log(l)
		}
		t.Fatalf(format, args...)
	}
	a, b := r.got[0], r.got[1]
	if len(a) != len(b) {
		fail("shared window emitted %d composites, own windows %d", len(a), len(b))
	}
	for k := from; k < len(a); k++ {
		x, y := a[k], b[k]
		if x.expr != y.expr || x.ctx != y.ctx || len(x.leaves) != len(y.leaves) {
			fail("emission %d: shared def%d/%v with %d leaves, own own%d/%v with %d",
				k, x.expr, x.ctx, len(x.leaves), y.expr, y.ctx, len(y.leaves))
		}
		for j := range x.leaves {
			l, m := x.leaves[j], y.leaves[j]
			switch {
			case l.Kind == event.KindTransaction:
				// An initiator or terminator: the twin explicit event of
				// the same transaction must stand in the same place.
				want := map[string]string{event.BeginTransaction: "xb", event.PreCommit: "xp"}[l.Name]
				if m.Name != want || m.Txn != l.Txn {
					fail("emission %d leaf %d: %s of txn %d against %s of txn %d", k, j, l.Name, l.Txn, m.Name, m.Txn)
				}
			case l != m:
				fail("emission %d leaf %d: different accumulated occurrences (%s seq %d, %s seq %d)", k, j, l.Name, l.Seq, m.Name, m.Seq)
			}
		}
	}
	// Stored occurrences: what each shared member holds and can see of
	// the window is what its twin stores.
	for i := range r.shared {
		def, own := r.shared[i], r.own[i]
		seen := def.occupancy()
		for ctx := Context(0); ctx < numContexts; ctx++ {
			if def.activeIn(ctx) {
				seen += len(def.visible(ctx))
			}
		}
		if seen != own.occupancy() {
			fail("def%d holds or sees %d occurrences, own%d stores %d", i, seen, i, own.occupancy())
		}
	}
	if r.win.occupancy() == 0 {
		r.hidden = false
	}
	if r.nExpr == 1 && !r.hidden {
		// One member: the window holds exactly its twin's initiators.
		if got, want := r.shared[0].occupancy()+r.win.occupancy(), r.own[0].occupancy(); got != want {
			fail("def0 plus the window store %d occurrences, own0 stores %d", got, want)
		}
	}
	return len(a)
}

func runWindowDiff(t *testing.T, seed int64, nExpr, steps int) {
	rng := rand.New(rand.NewSource(seed))
	r := newDiffRig(t, nExpr)
	type liveTxn struct {
		id     uint64
		family []uint64
	}
	var (
		live   []liveTxn
		nextID uint64 = 100
		done   int
	)
	// Start with a random set of subscriptions so most schedules detect.
	for i := 0; i < nExpr; i++ {
		for ctx := Context(0); ctx < numContexts; ctx++ {
			if rng.Intn(2) == 0 {
				r.toggle(i, ctx)
			}
		}
	}
	for step := 0; step < steps; step++ {
		switch p := rng.Intn(100); {
		case p < 12 && len(live) < 3:
			nextID += 10
			live = append(live, liveTxn{id: nextID, family: []uint64{nextID}})
			r.logf("begin %d", nextID)
			r.d.SignalTxn(event.BeginTransaction, nextID)
			r.explicit("xb", nextID)
		case p < 60 && len(live) > 0:
			tx := &live[rng.Intn(len(live))]
			id := tx.id
			if rng.Intn(3) == 0 { // from a rule subtransaction of the family
				id = tx.id + uint64(len(tx.family))
				tx.family = append(tx.family, id)
			}
			e := fmt.Sprintf("e%d", rng.Intn(nExpr))
			r.logf("%s in %d", e, id)
			r.explicit(e, id)
		case p < 72 && len(live) > 0:
			tx := live[rng.Intn(len(live))]
			r.logf("preCommit %d", tx.id)
			r.d.SignalTxn(event.PreCommit, tx.id)
			r.explicit("xp", tx.id)
		case p < 84 && len(live) > 0:
			k := rng.Intn(len(live))
			tx := live[k]
			live = append(live[:k], live[k+1:]...)
			end := event.CommitTransaction
			if rng.Intn(4) == 0 {
				end = event.AbortTransaction
			}
			r.logf("%s %d, flush %v", end, tx.id, tx.family)
			r.d.SignalTxn(end, tx.id)
			r.d.FlushTxns(tx.family)
		case p < 96:
			r.toggle(rng.Intn(nExpr), Context(rng.Intn(int(numContexts))))
		default:
			i := rng.Intn(nExpr)
			r.logf("FlushEvent %d", i)
			r.hidden = true
			for _, prefix := range [2]string{"def", "own"} {
				if err := r.d.FlushEvent(fmt.Sprintf("%s%d", prefix, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		done = r.check(done)
		if len(live) == 0 {
			if n := r.d.PendingOccurrences(); n != 0 {
				t.Fatalf("seed %d step %d: %d occurrences stored with no transaction open", seed, step, n)
			}
		}
	}
}

func TestSharedTxnWindowMatchesOwnWindow(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		for _, nExpr := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("seed%d/exprs%d", seed, nExpr), func(t *testing.T) {
				runWindowDiff(t, seed*7+int64(nExpr), nExpr, 250)
			})
		}
	}
}

// TestSharedTxnWindowLifetime: the window comes with the first A* over
// its pair of transaction events, stays while any is defined, and goes —
// edges first, so the orphaned transaction events follow — with the last.
func TestSharedTxnWindowLifetime(t *testing.T) {
	d := New()
	bt, _ := d.TransactionEvent(event.BeginTransaction)
	pc, _ := d.TransactionEvent(event.PreCommit)
	var cs [2]collector
	var unsub [2]func()
	for i, name := range []string{"e0", "e1"} {
		e, err := d.DefineExplicit(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.AStar("def_"+name, bt, e, pc); err != nil {
			t.Fatal(err)
		}
		if err := d.Retain("def_" + name); err != nil {
			t.Fatal(err)
		}
		if unsub[i], err = d.Subscribe("def_"+name, Chronicle, &cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.txnWindows) != 1 {
		t.Fatalf("%d windows for one pair of transaction events", len(d.txnWindows))
	}
	if got := len(bt.core().parents); got != 1 {
		t.Fatalf("beginTransaction has %d parent edges under two deferred A* nodes, want the window's one", got)
	}
	d.SignalTxn(event.BeginTransaction, 1)
	for _, name := range []string{"e0", "e1"} {
		if err := d.SignalExplicit(name, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the first member while it is armed.
	unsub[0]()
	if err := d.Release("def_e0"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup("def_e0"); err == nil {
		t.Fatal("released member still defined")
	}
	d.SignalTxn(event.PreCommit, 1)
	if len(cs[0].occs) != 0 || len(cs[1].occs) != 1 {
		t.Fatalf("after releasing one armed member: %d and %d detections, want 0 and 1", len(cs[0].occs), len(cs[1].occs))
	}
	d.SignalTxn(event.CommitTransaction, 1)
	unsub[1]()
	if err := d.Release("def_e1"); err != nil {
		t.Fatal(err)
	}
	if len(d.txnWindows) != 0 {
		t.Fatal("window outlived its last member")
	}
	for _, name := range []string{event.BeginTransaction, event.PreCommit} {
		if _, err := d.Lookup(name); err == nil {
			t.Fatalf("%s still defined: the window kept its edge", name)
		}
	}
	if n := d.PendingOccurrences(); n != 0 {
		t.Fatalf("%d occurrences left behind", n)
	}
}
