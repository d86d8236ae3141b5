package detector

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/event"
)

// TestTxnWindowKeyedByFamily: in a detector from NewWithFamilies, the
// window of A*(beginTransaction, e, preCommitTransaction) — the
// deferred-rule rewrite — behaves as one window per transaction however
// the top-level transactions interleave. Seeded schedules of up to three live
// transactions signal e from roots and subtransactions; the oracle keeps,
// per transaction, the e occurrences between its begin and its first
// preCommit, which closes its window. That preCommit must emit exactly
// [begin, those…, preCommit] in each context — nothing of another
// transaction's — and a repeated one (a commit retried) nothing.
func TestTxnWindowKeyedByFamily(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runKeyedWindow(t, seed, 200) })
	}
}

func runKeyedWindow(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	families := map[uint64][]uint64{}
	d := NewWithFamilies(func(root uint64) []uint64 { return append([]uint64(nil), families[root]...) })
	bt, _ := d.TransactionEvent(event.BeginTransaction)
	pc, _ := d.TransactionEvent(event.PreCommit)
	e, err := d.DefineExplicit("e")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AStar("def", bt, e, pc); err != nil {
		t.Fatal(err)
	}
	var got []*event.Occurrence
	for ctx := Context(0); ctx < numContexts; ctx++ {
		if _, err := d.Subscribe("def", ctx, SubscriberFunc(func(occ *event.Occurrence, _ Context) {
			got = append(got, occ)
		})); err != nil {
			t.Fatal(err)
		}
	}
	var (
		live    []uint64
		pending = map[uint64][]int{} // root -> e serials accumulated since its begin
		closed  = map[uint64]bool{}  // root -> its preCommit closed its window
		nextID  = uint64(100)
		serial  int
		trace   []string
	)
	fail := func(format string, args ...any) {
		t.Helper()
		for _, l := range trace {
			t.Log(l)
		}
		t.Fatalf(format, args...)
	}
	for step := 0; step < steps; step++ {
		switch p := rng.Intn(100); {
		case p < 15 && len(live) < 3:
			nextID += 10
			live = append(live, nextID)
			families[nextID] = []uint64{nextID}
			trace = append(trace, fmt.Sprintf("begin %d", nextID))
			d.SignalTxn(event.BeginTransaction, nextID)
		case p < 65 && len(live) > 0:
			root := live[rng.Intn(len(live))]
			id := root
			if rng.Intn(3) == 0 { // from a subtransaction of the family
				id = root + uint64(len(families[root]))
				families[root] = append(families[root], id)
			}
			serial++
			trace = append(trace, fmt.Sprintf("e#%d in %d (root %d)", serial, id, root))
			if err := d.SignalExplicit("e", event.NewParams("n", serial), id); err != nil {
				t.Fatal(err)
			}
			if !closed[root] {
				pending[root] = append(pending[root], serial)
			}
		case p < 85 && len(live) > 0:
			root := live[rng.Intn(len(live))]
			trace = append(trace, fmt.Sprintf("preCommit %d", root))
			before := len(got)
			d.SignalTxn(event.PreCommit, root)
			want := pending[root]
			pending[root], closed[root] = nil, true
			emitted := got[before:]
			if len(want) == 0 {
				if len(emitted) != 0 {
					fail("preCommit %d emitted %d composites with nothing accumulated", root, len(emitted))
				}
				continue
			}
			if len(emitted) != int(numContexts) {
				fail("preCommit %d emitted %d composites, want one per context", root, len(emitted))
			}
			for _, occ := range emitted {
				leaves := occ.Leaves()
				if len(leaves) != len(want)+2 || leaves[0].Name != event.BeginTransaction || leaves[0].Txn != root ||
					leaves[len(leaves)-1].Name != event.PreCommit || leaves[len(leaves)-1].Txn != root {
					fail("preCommit %d: composite of %d leaves does not bracket its own %d occurrences", root, len(leaves), len(want))
				}
				for i, n := range want {
					if v, _ := leaves[i+1].Params.Get("n"); v != n {
						fail("preCommit %d: leaf %d is e#%v, want e#%d", root, i+1, v, n)
					}
				}
			}
		case len(live) > 0:
			k := rng.Intn(len(live))
			root := live[k]
			live = append(live[:k], live[k+1:]...)
			trace = append(trace, fmt.Sprintf("end %d", root))
			d.SignalTxn(event.CommitTransaction, root)
			d.FlushTxns(families[root])
			delete(pending, root)
			delete(closed, root)
			delete(families, root)
		}
		if len(live) == 0 {
			if n := d.PendingOccurrences(); n != 0 {
				fail("step %d: %d occurrences stored with no transaction open", step, n)
			}
		}
	}
}
