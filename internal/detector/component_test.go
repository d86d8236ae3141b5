package detector

import (
	"testing"

	"repro/internal/event"
)

// These tests pin down the union-find component semantics the sharded
// detector relies on: nodes start in singleton components, operators merge
// their operands' components (transitively), merged state is preserved,
// and the stats shards of retired components keep contributing to the
// snapshot sum.

func TestComponentsMergeOnOperatorDefinition(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	a := mustPrim(t, d, "ca", "C", "ma", event.End, 0)
	b := mustPrim(t, d, "cb", "C", "mb", event.End, 0)
	c := mustPrim(t, d, "cc", "C", "mc", event.End, 0)

	if a.component() == b.component() || b.component() == c.component() {
		t.Fatal("fresh primitives must start in distinct components")
	}

	ab, err := d.Seq("ca;cb", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.component() != b.component() {
		t.Fatal("Seq operands must share a component after definition")
	}
	if ab.component() != a.component() {
		t.Fatal("operator node must join its operands' component")
	}
	if c.component() == a.component() {
		t.Fatal("unrelated node must stay in its own component")
	}

	// A second operator spanning the first expression and the loner must
	// merge transitively into a single component.
	if _, err := d.And("(ca;cb)&cc", ab, c); err != nil {
		t.Fatal(err)
	}
	if c.component() != a.component() || c.component() != ab.component() {
		t.Fatal("And must merge both operand components into one")
	}
}

func TestComponentMergePreservesPendingState(t *testing.T) {
	d := New()
	d.AutoFlush = false
	d.DeclareClass("C", "")
	a := mustPrim(t, d, "pa", "C", "ma", event.End, 0)
	b := mustPrim(t, d, "pb", "C", "mb", event.End, 0)
	seq, err := d.Seq("pa;pb", a, b)
	if err != nil {
		t.Fatal(err)
	}
	var got []*event.Occurrence
	if _, err := d.Subscribe(seq.Name(), Recent, SubscriberFunc(func(occ *event.Occurrence, _ Context) {
		got = append(got, occ)
	})); err != nil {
		t.Fatal(err)
	}
	// Store an initiator, then merge the expression with a third event —
	// the stored occurrence must survive the merge and still pair.
	d.SignalMethod("C", "ma", event.End, 1, nil, 7)
	c := mustPrim(t, d, "pc", "C", "mc", event.End, 0)
	if _, err := d.And("(pa;pb)&pc", seq, c); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("C", "mb", event.End, 1, nil, 7)
	if len(got) != 1 {
		t.Fatalf("stored initiator lost across component merge: %d detections", len(got))
	}
	// The dirty tracking must have survived too: flushing the transaction
	// clears the SEQ state, so a fresh terminator no longer pairs.
	d.FlushTxn(7)
	d.SignalMethod("C", "mb", event.End, 1, nil, 7)
	if len(got) != 1 {
		t.Fatalf("flush after merge missed moved dirty state: %d detections", len(got))
	}
}

func TestStatsSnapshotSumsRetiredComponents(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	a := mustPrim(t, d, "sa", "C", "ma", event.End, 0)
	b := mustPrim(t, d, "sb", "C", "mb", event.End, 0)
	for _, name := range []string{"sa", "sb"} {
		if _, err := d.Subscribe(name, Recent, SubscriberFunc(func(*event.Occurrence, Context) {})); err != nil {
			t.Fatal(err)
		}
	}
	// Account signals on both singleton components, then merge them: the
	// loser's counters freeze but must stay in the snapshot sum.
	d.SignalMethod("C", "ma", event.End, 1, nil, 1)
	d.SignalMethod("C", "mb", event.End, 1, nil, 1)
	before := d.StatsSnapshot()
	if _, err := d.And("sa&sb", a, b); err != nil {
		t.Fatal(err)
	}
	after := d.StatsSnapshot()
	if after.Signals < before.Signals || after.RuleFires < before.RuleFires {
		t.Fatalf("snapshot went backwards across a merge: before %+v, after %+v", before, after)
	}
	d.SignalMethod("C", "ma", event.End, 1, nil, 1)
	final := d.StatsSnapshot()
	if final.Signals != after.Signals+1 {
		t.Fatalf("merged component stopped counting: %+v -> %+v", after, final)
	}
}

// TestDirtyListStampAndDuplicates pins the slice-and-stamp dirty tracking:
// a node is listed once per run of one transaction's deliveries, twice
// when another transaction's delivery came between (harmless), a flush
// visits exactly the listed entries and clears the stamp, so a reused
// transaction id lists — and flushes — the node again.
func TestDirtyListStampAndDuplicates(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	a := mustPrim(t, d, "da", "C", "ma", event.End, 0)
	b := mustPrim(t, d, "db", "C", "mb", event.End, 0)
	seq, err := d.Seq("da;db", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe("da;db", Chronicle, SubscriberFunc(func(*event.Occurrence, Context) {})); err != nil {
		t.Fatal(err)
	}
	root := seq.component()
	sig := func(txn uint64) { d.SignalMethod("C", "ma", event.End, 1, nil, txn) }

	sig(1)
	sig(1)
	sig(1)
	if got := len(root.dirty[1]); got != 1 {
		t.Fatalf("three deliveries of txn 1 listed the node %d times, want 1", got)
	}
	sig(2)
	sig(1)
	if got := len(root.dirty[1]); got != 2 {
		t.Fatalf("txn 1's list has %d entries after txn 2 interleaved, want 2 (one duplicate)", got)
	}
	if got := d.PendingOccurrences(); got != 5 {
		t.Fatalf("%d initiators stored, want 5", got)
	}
	before := d.obs.flushNodes.Load()
	d.FlushTxns([]uint64{1, 99}) // 99 touched nothing
	if got := d.obs.flushNodes.Load() - before; got != 2 {
		t.Fatalf("flush visited %d dirty entries, want 2", got)
	}
	if got := d.PendingOccurrences(); got != 1 {
		t.Fatalf("%d occurrences left after flushing txn 1, want txn 2's one", got)
	}
	// Same id again: the stamp was cleared, so the node is listed and the
	// next flush finds the new occurrence.
	sig(1)
	if got := len(root.dirty[1]); got != 1 {
		t.Fatalf("reused txn id listed the node %d times, want 1", got)
	}
	d.FlushTxn(1)
	d.FlushTxn(2)
	if got := d.PendingOccurrences(); got != 0 {
		t.Fatalf("%d occurrences left after flushing both transactions", got)
	}
}
