package detector

import (
	"reflect"
	"testing"

	"repro/internal/event"
)

// rig wires a detector with primitive events e1..e4 on methods m1..m4 of
// class C and provides a terse signalling helper. Signalled occurrences
// carry a "n" parameter so tests can distinguish repeats of the same
// event type.
type rig struct {
	t *testing.T
	d *Detector
	n map[string]Node
	i int
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{t: t, d: New(), n: map[string]Node{}}
	r.d.DeclareClass("C", "")
	for _, e := range []string{"e1", "e2", "e3", "e4"} {
		n, err := r.d.DefinePrimitive(e, "C", "m"+e[1:], event.End, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.n[e] = n
	}
	return r
}

// sig signals one occurrence of the named event (e1..e4) in txn 1.
func (r *rig) sig(e string) {
	r.i++
	r.d.SignalMethod("C", "m"+e[1:], event.End, 1, event.NewParams("n", r.i), 1)
}

// sub subscribes a fresh collector to the named event in ctx.
func (r *rig) sub(name string, ctx Context) *collector {
	r.t.Helper()
	c := &collector{}
	if _, err := r.d.Subscribe(name, ctx, c); err != nil {
		r.t.Fatal(err)
	}
	return c
}

// leafNums renders each detection as the "n" parameters of its leaves.
func leafNums(c *collector) [][]int {
	out := make([][]int, len(c.occs))
	for i, o := range c.occs {
		for _, l := range o.Leaves() {
			v, _ := l.Params.Get("n")
			out[i] = append(out[i], v.(int))
		}
	}
	return out
}

func expectDetections(t *testing.T, c *collector, want [][]int) {
	t.Helper()
	got := leafNums(c)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("detections = %v, want %v", got, want)
	}
}

// --- OR -------------------------------------------------------------------

func TestOrAllContexts(t *testing.T) {
	for _, ctx := range Contexts() {
		t.Run(ctx.String(), func(t *testing.T) {
			r := newRig(t)
			if _, err := r.d.Or("x", r.n["e1"], r.n["e2"]); err != nil {
				t.Fatal(err)
			}
			c := r.sub("x", ctx)
			r.sig("e1") // 1
			r.sig("e2") // 2
			r.sig("e3") // 3: not part of the disjunction
			expectDetections(t, c, [][]int{{1}, {2}})
		})
	}
}

// --- AND ------------------------------------------------------------------

func TestAndRecent(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.And("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Recent)
	r.sig("e1") // 1
	r.sig("e1") // 2: replaces 1 as the most recent e1
	r.sig("e2") // 3: pairs with 2
	r.sig("e2") // 4: re-pairs with 2 (recent keeps the initiator)
	expectDetections(t, c, [][]int{{2, 3}, {2, 4}})
}

func TestAndChronicle(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.And("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Chronicle)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e2") // 3: pairs with oldest e1 (1)
	r.sig("e2") // 4: pairs with next e1 (2)
	r.sig("e2") // 5: no e1 left
	expectDetections(t, c, [][]int{{1, 3}, {2, 4}})
}

func TestAndContinuous(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.And("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Continuous)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e2") // 3: terminates both open windows at once
	r.sig("e2") // 4: nothing open
	expectDetections(t, c, [][]int{{1, 3}, {2, 3}})
}

func TestAndCumulative(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.And("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Cumulative)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e2") // 3: everything accumulated goes into one composite
	r.sig("e2") // 4: state consumed, e2 alone cannot complete
	expectDetections(t, c, [][]int{{1, 2, 3}})
}

func TestAndOrderIndependent(t *testing.T) {
	// e2 before e1 must detect too, with constituents in time order.
	r := newRig(t)
	if _, err := r.d.And("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Recent)
	r.sig("e2") // 1
	r.sig("e1") // 2
	expectDetections(t, c, [][]int{{1, 2}})
}

// --- SEQ ------------------------------------------------------------------

func TestSeqRecent(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.Seq("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Recent)
	r.sig("e2") // 1: no initiator yet
	r.sig("e1") // 2
	r.sig("e1") // 3: most recent initiator
	r.sig("e2") // 4: pairs with 3
	r.sig("e2") // 5: pairs with 3 again (recent retains the initiator)
	expectDetections(t, c, [][]int{{3, 4}, {3, 5}})
}

func TestSeqChronicle(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.Seq("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Chronicle)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e2") // 3: oldest initiator 1
	r.sig("e2") // 4: next initiator 2
	r.sig("e2") // 5: exhausted
	expectDetections(t, c, [][]int{{1, 3}, {2, 4}})
}

func TestSeqContinuous(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.Seq("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Continuous)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e2") // 3: closes both
	r.sig("e2") // 4: nothing open
	expectDetections(t, c, [][]int{{1, 3}, {2, 3}})
}

func TestSeqCumulative(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.Seq("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Cumulative)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e2") // 3: all initiators in one composite
	expectDetections(t, c, [][]int{{1, 2, 3}})
}

func TestSeqRequiresStrictOrder(t *testing.T) {
	// The initiator must precede the terminator; an initiator arriving
	// after never pairs with an earlier terminator.
	r := newRig(t)
	if _, err := r.d.Seq("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Chronicle)
	r.sig("e2")
	r.sig("e1")
	expectDetections(t, c, [][]int{})
}

// --- NOT ------------------------------------------------------------------

func TestNotDetectsWhenNoMiddle(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.Not("x", r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Recent)
	r.sig("e1") // 1
	r.sig("e3") // 2: no e2 intervened
	expectDetections(t, c, [][]int{{1, 2}})
}

func TestNotCancelledByMiddle(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.Not("x", r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Recent)
	r.sig("e1") // 1
	r.sig("e2") // 2: kills the window
	r.sig("e3") // 3: nothing to close
	expectDetections(t, c, [][]int{})
	// A fresh initiator after the middle works again.
	r.sig("e1") // 4
	r.sig("e3") // 5
	expectDetections(t, c, [][]int{{4, 5}})
}

func TestNotChronicleConsumes(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.Not("x", r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Chronicle)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e3") // 3: consumes 1
	r.sig("e3") // 4: consumes 2
	r.sig("e3") // 5
	expectDetections(t, c, [][]int{{1, 3}, {2, 4}})
}

// --- ANY ------------------------------------------------------------------

func TestAnyRecent(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.Any("x", 2, r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Recent)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e3") // 3: two distinct types present -> {2,3}
	expectDetections(t, c, [][]int{{2, 3}})
}

func TestAnyChronicle(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.Any("x", 2, r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Chronicle)
	r.sig("e1") // 1
	r.sig("e2") // 2: {1,2}, both consumed
	r.sig("e3") // 3: only one type stored now
	r.sig("e1") // 4: {3,4}
	expectDetections(t, c, [][]int{{1, 2}, {3, 4}})
}

func TestAnyCumulative(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.Any("x", 2, r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Cumulative)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e2") // 3: all three accumulated occurrences in one composite
	expectDetections(t, c, [][]int{{1, 2, 3}})
}

func TestAnyAllThree(t *testing.T) {
	// ANY(3, e1, e2, e3) behaves like a ternary conjunction.
	r := newRig(t)
	if _, err := r.d.Any("x", 3, r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Chronicle)
	r.sig("e2") // 1
	r.sig("e1") // 2
	r.sig("e2") // 3
	r.sig("e3") // 4: completes with oldest of each type
	expectDetections(t, c, [][]int{{1, 2, 4}})
}

// --- A (aperiodic) ----------------------------------------------------------

func TestAperiodicSignalsEachMiddle(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.A("x", r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Recent)
	r.sig("e2") // 1: window not open
	r.sig("e1") // 2: opens
	r.sig("e2") // 3: fires
	r.sig("e2") // 4: fires
	r.sig("e3") // 5: closes
	r.sig("e2") // 6: closed
	expectDetections(t, c, [][]int{{2, 3}, {2, 4}})
}

func TestAperiodicContinuousMultipleWindows(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.A("x", r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Continuous)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e2") // 3: fires once per open window
	expectDetections(t, c, [][]int{{1, 3}, {2, 3}})
}

// --- A* ---------------------------------------------------------------------

func TestAStarAccumulatesUntilTerminator(t *testing.T) {
	r := newRig(t)
	if _, err := r.d.AStar("x", r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Recent)
	r.sig("e1") // 1: opens
	r.sig("e2") // 2
	r.sig("e2") // 3
	r.sig("e3") // 4: emits once with everything
	r.sig("e3") // 5: window closed, nothing accumulated
	expectDetections(t, c, [][]int{{1, 2, 3, 4}})
}

func TestAStarNoMiddleNoDetection(t *testing.T) {
	// The deferred-rule property: if E never occurred in the transaction,
	// the deferred rule must not fire at pre-commit.
	r := newRig(t)
	if _, err := r.d.AStar("x", r.n["e1"], r.n["e2"], r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Recent)
	r.sig("e1")
	r.sig("e3")
	expectDetections(t, c, [][]int{})
}

func TestAStarDeferredRewritePattern(t *testing.T) {
	// A*(beginTransaction, e1, preCommit): exactly one detection per
	// transaction no matter how many e1 occurrences.
	r := newRig(t)
	bt, err := r.d.TransactionEvent(event.BeginTransaction)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := r.d.TransactionEvent(event.PreCommit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.d.AStar("deferred", bt, r.n["e1"], pc); err != nil {
		t.Fatal(err)
	}
	c := r.sub("deferred", Cumulative)
	r.d.SignalTxn(event.BeginTransaction, 1)
	r.sig("e1")
	r.sig("e1")
	r.sig("e1")
	r.d.SignalTxn(event.PreCommit, 1)
	if len(c.occs) != 1 {
		t.Fatalf("deferred fired %d times, want exactly 1", len(c.occs))
	}
	if got := len(c.occs[0].Leaves()); got != 5 { // begin + 3×e1 + preCommit
		t.Fatalf("deferred composite has %d leaves, want 5", got)
	}
	d2 := r.d
	d2.SignalTxn(event.CommitTransaction, 1)
	// Next transaction: again exactly once.
	d2.SignalTxn(event.BeginTransaction, 2)
	r.d.SignalMethod("C", "m1", event.End, 1, event.NewParams("n", 99), 2)
	d2.SignalTxn(event.PreCommit, 2)
	if len(c.occs) != 2 {
		t.Fatalf("second txn: %d detections, want 2 total", len(c.occs))
	}
}

// --- nested expressions -----------------------------------------------------

func TestNestedExpression(t *testing.T) {
	// (e1 ; e2) AND e3
	r := newRig(t)
	s, err := r.d.Seq("s", r.n["e1"], r.n["e2"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.d.And("x", s, r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Chronicle)
	r.sig("e1") // 1
	r.sig("e2") // 2: s detected
	r.sig("e3") // 3: completes the AND
	expectDetections(t, c, [][]int{{1, 2, 3}})
}

func TestNestedSeqOfComposites(t *testing.T) {
	// (e1 AND e2) ; e3 — the composite initiator's *interval end* must
	// precede the terminator.
	r := newRig(t)
	a, err := r.d.And("a", r.n["e1"], r.n["e2"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.d.Seq("x", a, r.n["e3"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Chronicle)
	r.sig("e1") // 1
	r.sig("e2") // 2: a detected with interval [1,2]
	r.sig("e3") // 3
	expectDetections(t, c, [][]int{{1, 2, 3}})
}

func TestMultipleContextsSimultaneously(t *testing.T) {
	// One shared graph, two subscribers in different contexts: each sees
	// its own grouping (§3.2.2(1) of the paper).
	r := newRig(t)
	if _, err := r.d.Seq("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	rec := r.sub("x", Recent)
	chr := r.sub("x", Chronicle)
	r.sig("e1") // 1
	r.sig("e1") // 2
	r.sig("e2") // 3
	r.sig("e2") // 4
	expectDetections(t, rec, [][]int{{2, 3}, {2, 4}})
	expectDetections(t, chr, [][]int{{1, 3}, {2, 4}})
}

func TestCompositeParametersOrdered(t *testing.T) {
	// Composite parameters arrive as the concatenated constituent lists,
	// in detection order (the paper's linked list of PARA_LISTs).
	r := newRig(t)
	if _, err := r.d.Seq("x", r.n["e1"], r.n["e2"]); err != nil {
		t.Fatal(err)
	}
	c := r.sub("x", Chronicle)
	r.d.SignalMethod("C", "m1", event.End, 5, event.NewParams("qty", 10), 1)
	r.d.SignalMethod("C", "m2", event.End, 6, event.NewParams("price", 99.5), 1)
	if len(c.occs) != 1 {
		t.Fatalf("detections=%d", len(c.occs))
	}
	lists := c.occs[0].AllParams()
	if len(lists) != 2 {
		t.Fatalf("param lists=%d", len(lists))
	}
	if v, _ := lists[0].Get("qty"); v.(int) != 10 {
		t.Fatalf("first list: %v", lists[0])
	}
	if v, _ := lists[1].Get("price"); v.(float64) != 99.5 {
		t.Fatalf("second list: %v", lists[1])
	}
	// And the object identities survive as occurrence fields.
	leaves := c.occs[0].Leaves()
	if leaves[0].Object != 5 || leaves[1].Object != 6 {
		t.Fatalf("OIDs lost: %v %v", leaves[0].Object, leaves[1].Object)
	}
}

// CHRONICLE pairs each terminator with the oldest pending initiator, for
// SEQ and for NOT's terminator alike, however long the backlog: behind
// 10 000 pending initiators, terminators interleaved with fresh
// initiators pair in arrival order until the store is empty.
func TestChronicleBacklogPairsFIFO(t *testing.T) {
	const backlog = 10000
	for _, tc := range []struct {
		name   string
		define func(r *rig) (Node, error)
	}{
		{"seq", func(r *rig) (Node, error) { return r.d.Seq("x", r.n["e1"], r.n["e2"]) }},
		{"not", func(r *rig) (Node, error) { return r.d.Not("x", r.n["e1"], r.n["e3"], r.n["e2"]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			if _, err := tc.define(r); err != nil {
				t.Fatal(err)
			}
			c := r.sub("x", Chronicle)
			var pending []int
			for range backlog {
				r.sig("e1")
				pending = append(pending, r.i)
			}
			var want [][]int
			for i := range 2 * backlog {
				r.sig("e2")
				want = append(want, []int{pending[0], r.i})
				pending = pending[1:]
				if i < backlog {
					r.sig("e1")
					pending = append(pending, r.i)
				}
			}
			expectDetections(t, c, want)
			r.sig("e2") // nothing left to pair
			if len(c.occs) != len(want) {
				t.Fatalf("a terminator paired with an empty store: %d detections", len(c.occs))
			}
		})
	}
}
