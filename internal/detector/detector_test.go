package detector

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/event"
)

// collector accumulates notifications for assertions.
type collector struct {
	occs []*event.Occurrence
	ctxs []Context
}

func (c *collector) Notify(occ *event.Occurrence, ctx Context) {
	c.occs = append(c.occs, occ)
	c.ctxs = append(c.ctxs, ctx)
}

func (c *collector) names() []string {
	out := make([]string, len(c.occs))
	for i, o := range c.occs {
		out[i] = o.Name
	}
	return out
}

// leafNames renders each received composite as "a,b,c" of its leaves.
func (c *collector) leafNames() []string {
	out := make([]string, len(c.occs))
	for i, o := range c.occs {
		var parts []string
		for _, l := range o.Leaves() {
			parts = append(parts, l.Name)
		}
		out[i] = strings.Join(parts, ",")
	}
	return out
}

func mustPrim(t *testing.T, d *Detector, name, class, method string, mod event.Modifier, oid event.OID) Node {
	t.Helper()
	n, err := d.DefinePrimitive(name, class, method, mod, oid)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestContextStringAndParse(t *testing.T) {
	for _, c := range Contexts() {
		parsed, err := ParseContext(c.String())
		if err != nil || parsed != c {
			t.Errorf("round trip %v: %v %v", c, parsed, err)
		}
	}
	if _, err := ParseContext("weird"); err == nil {
		t.Error("ParseContext(weird) should fail")
	}
	if c, err := ParseContext(""); err != nil || c != Recent {
		t.Errorf("empty context should default to RECENT: %v %v", c, err)
	}
	if c, err := ParseContext("chronicle"); err != nil || c != Chronicle {
		t.Errorf("lower-case context: %v %v", c, err)
	}
	if !strings.Contains(Context(9).String(), "9") {
		t.Error("unknown context String")
	}
}

func TestPrimitiveClassLevelEvent(t *testing.T) {
	d := New()
	d.DeclareClass("STOCK", "")
	mustPrim(t, d, "any_price", "STOCK", "set_price", event.Begin, 0)
	var c collector
	if _, err := d.Subscribe("any_price", Recent, &c); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("STOCK", "set_price", event.Begin, 7, event.NewParams("price", 42.0), 1)
	d.SignalMethod("STOCK", "set_price", event.End, 7, nil, 1)    // wrong modifier
	d.SignalMethod("STOCK", "sell_stock", event.Begin, 7, nil, 1) // wrong method
	if len(c.occs) != 1 {
		t.Fatalf("got %d notifications, want 1 (%v)", len(c.occs), c.names())
	}
	occ := c.occs[0]
	if occ.Name != "any_price" || occ.Object != 7 {
		t.Fatalf("occurrence: %v", occ)
	}
	if v, _ := occ.Params.Get("price"); v.(float64) != 42.0 {
		t.Fatalf("params lost: %v", occ.Params)
	}
}

func TestPrimitiveInstanceLevelEvent(t *testing.T) {
	d := New()
	d.DeclareClass("STOCK", "")
	const ibm = event.OID(11)
	mustPrim(t, d, "ibm_price", "STOCK", "set_price", event.Begin, ibm)
	var c collector
	if _, err := d.Subscribe("ibm_price", Recent, &c); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("STOCK", "set_price", event.Begin, 99, nil, 1) // other instance
	d.SignalMethod("STOCK", "set_price", event.Begin, ibm, nil, 1)
	if len(c.occs) != 1 || c.occs[0].Object != ibm {
		t.Fatalf("instance-level filter broken: %v", c.names())
	}
}

func TestClassEventFiresForSubclassInstances(t *testing.T) {
	d := New()
	d.DeclareClass("SECURITY", "")
	d.DeclareClass("STOCK", "SECURITY")
	d.DeclareClass("BOND", "SECURITY")
	mustPrim(t, d, "any_sec", "SECURITY", "trade", event.End, 0)
	var c collector
	if _, err := d.Subscribe("any_sec", Recent, &c); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("STOCK", "trade", event.End, 1, nil, 1)
	d.SignalMethod("BOND", "trade", event.End, 2, nil, 1)
	d.SignalMethod("SECURITY", "trade", event.End, 3, nil, 1)
	if len(c.occs) != 3 {
		t.Fatalf("inheritance: got %d occurrences, want 3", len(c.occs))
	}
}

func TestSubclassEventNotFiredForSuperclass(t *testing.T) {
	d := New()
	d.DeclareClass("SECURITY", "")
	d.DeclareClass("STOCK", "SECURITY")
	mustPrim(t, d, "stock_trade", "STOCK", "trade", event.End, 0)
	var c collector
	if _, err := d.Subscribe("stock_trade", Recent, &c); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("SECURITY", "trade", event.End, 3, nil, 1)
	if len(c.occs) != 0 {
		t.Fatalf("superclass invocation fired subclass event: %v", c.names())
	}
}

func TestSameMethodTwoEventNames(t *testing.T) {
	// The paper's any_stk_price / set_IBM_price example: one method, two
	// primitive events with distinct names.
	d := New()
	d.DeclareClass("Stock", "")
	const ibm = event.OID(5)
	mustPrim(t, d, "any_stk_price", "Stock", "set_price", event.Begin, 0)
	mustPrim(t, d, "set_IBM_price", "Stock", "set_price", event.Begin, ibm)
	var all, only collector
	if _, err := d.Subscribe("any_stk_price", Recent, &all); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe("set_IBM_price", Recent, &only); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("Stock", "set_price", event.Begin, 1, nil, 1)
	d.SignalMethod("Stock", "set_price", event.Begin, ibm, nil, 1)
	if len(all.occs) != 2 {
		t.Fatalf("class-level event count=%d want 2", len(all.occs))
	}
	if len(only.occs) != 1 || only.occs[0].Object != ibm {
		t.Fatalf("instance-level event: %v", only.names())
	}
	if all.occs[0].Name != "any_stk_price" || only.occs[0].Name != "set_IBM_price" {
		t.Fatalf("occurrence names: %v %v", all.names(), only.names())
	}
}

func TestExplicitEvents(t *testing.T) {
	d := New()
	if _, err := d.DefineExplicit("alarm"); err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := d.Subscribe("alarm", Recent, &c); err != nil {
		t.Fatal(err)
	}
	if err := d.SignalExplicit("alarm", event.NewParams("level", 3), 9); err != nil {
		t.Fatal(err)
	}
	if len(c.occs) != 1 || c.occs[0].Txn != 9 {
		t.Fatalf("explicit event: %v", c.occs)
	}
	if err := d.SignalExplicit("unknown", nil, 0); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("unknown explicit: %v", err)
	}
}

func TestTransactionEvents(t *testing.T) {
	d := New()
	if _, err := d.TransactionEvent(event.BeginTransaction); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TransactionEvent("bogus"); !errors.Is(err, ErrBadOperand) {
		t.Fatalf("bogus txn event: %v", err)
	}
	var c collector
	if _, err := d.Subscribe(event.BeginTransaction, Recent, &c); err != nil {
		t.Fatal(err)
	}
	d.SignalTxn(event.BeginTransaction, 42)
	if len(c.occs) != 1 || c.occs[0].Txn != 42 {
		t.Fatalf("txn event: %v", c.occs)
	}
}

func TestMaskingSuppressesSignals(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	mustPrim(t, d, "e", "C", "m", event.End, 0)
	var c collector
	if _, err := d.Subscribe("e", Recent, &c); err != nil {
		t.Fatal(err)
	}
	d.MaskTxns([]uint64{1, 7})
	d.SignalMethod("C", "m", event.End, 1, nil, 1)
	if err := d.SignalExplicit("e", nil, 7); err != nil {
		t.Fatal(err) // masked: silently ignored, not an error
	}
	if len(c.occs) != 0 {
		t.Fatalf("masked transactions signalled %d occurrences", len(c.occs))
	}
	d.SignalMethod("C", "m", event.End, 1, nil, 2) // another transaction is not masked
	d.UnmaskTxns([]uint64{1, 7})
	d.SignalMethod("C", "m", event.End, 1, nil, 1)
	if len(c.occs) != 2 || c.occs[0].Txn != 2 || c.occs[1].Txn != 1 {
		t.Fatalf("masking: got %v, want one occurrence of txn 2 then one of txn 1", c.occs)
	}
}

func TestDuplicateDefinitionSharedOrRejected(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	n1 := mustPrim(t, d, "e", "C", "m", event.End, 0)
	n2 := mustPrim(t, d, "e", "C", "m", event.End, 0) // identical: shared
	if n1 != n2 {
		t.Fatal("identical definition did not return the shared node")
	}
	if _, err := d.DefinePrimitive("e", "C", "other", event.End, 0); !errors.Is(err, ErrDuplicateEvent) {
		t.Fatalf("conflicting redefinition: %v", err)
	}
}

func TestSharedSubexpressionSingleNode(t *testing.T) {
	// Two composites over the same pair share the AND node; the graph has
	// one node for the common subexpression (§3.1 of the paper).
	d := New()
	d.DeclareClass("C", "")
	e1 := mustPrim(t, d, "e1", "C", "m1", event.End, 0)
	e2 := mustPrim(t, d, "e2", "C", "m2", event.End, 0)
	a1, err := d.And("e1^e2", e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := d.And("e1^e2", e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("common subexpression duplicated")
	}
	if _, err := d.Or("e1^e2", e1, e2); !errors.Is(err, ErrDuplicateEvent) {
		t.Fatalf("structural conflict: %v", err)
	}
}

func TestContextRefcountGatesDetection(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	e1 := mustPrim(t, d, "e1", "C", "m1", event.End, 0)
	e2 := mustPrim(t, d, "e2", "C", "m2", event.End, 0)
	if _, err := d.Seq("s", e1, e2); err != nil {
		t.Fatal(err)
	}
	// No subscriber: nothing detected, no state accumulates.
	d.SignalMethod("C", "m1", event.End, 1, nil, 1)
	d.SignalMethod("C", "m2", event.End, 1, nil, 1)

	var c collector
	unsub, err := d.Subscribe("s", Chronicle, &c)
	if err != nil {
		t.Fatal(err)
	}
	// Stored occurrences from before the subscription must not exist
	// (the counter was zero, so the node was not detecting).
	d.SignalMethod("C", "m2", event.End, 1, nil, 1)
	if len(c.occs) != 0 {
		t.Fatalf("detection used pre-subscription state: %v", c.leafNames())
	}
	d.SignalMethod("C", "m1", event.End, 1, nil, 1)
	d.SignalMethod("C", "m2", event.End, 1, nil, 1)
	if len(c.occs) != 1 {
		t.Fatalf("got %d detections, want 1", len(c.occs))
	}
	// After unsubscription the context count drops to zero: no detection.
	unsub()
	d.SignalMethod("C", "m1", event.End, 1, nil, 1)
	d.SignalMethod("C", "m2", event.End, 1, nil, 1)
	if len(c.occs) != 1 {
		t.Fatalf("detection after unsubscribe: %d", len(c.occs))
	}
}

func TestFlushTxnRemovesPartialState(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	e1 := mustPrim(t, d, "e1", "C", "m1", event.End, 0)
	e2 := mustPrim(t, d, "e2", "C", "m2", event.End, 0)
	if _, err := d.Seq("s", e1, e2); err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := d.Subscribe("s", Recent, &c); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("C", "m1", event.End, 1, nil, 77) // txn 77 initiates
	d.FlushTxn(77)
	d.SignalMethod("C", "m2", event.End, 1, nil, 88) // other txn terminates
	if len(c.occs) != 0 {
		t.Fatalf("flushed occurrence participated in detection: %v", c.leafNames())
	}
}

func TestAutoFlushOnCommitAndAbort(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	e1 := mustPrim(t, d, "e1", "C", "m1", event.End, 0)
	e2 := mustPrim(t, d, "e2", "C", "m2", event.End, 0)
	if _, err := d.Seq("s", e1, e2); err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := d.Subscribe("s", Recent, &c); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("C", "m1", event.End, 1, nil, 5)
	d.SignalTxn(event.AbortTransaction, 5) // flushes txn 5
	d.SignalMethod("C", "m2", event.End, 1, nil, 6)
	if len(c.occs) != 0 {
		t.Fatalf("aborted txn's initiator fired a rule: %v", c.leafNames())
	}

	d.AutoFlush = false
	d.SignalMethod("C", "m1", event.End, 1, nil, 7)
	d.SignalTxn(event.CommitTransaction, 7) // no flush now
	d.SignalMethod("C", "m2", event.End, 1, nil, 8)
	if len(c.occs) != 1 {
		t.Fatalf("with AutoFlush off, cross-txn detection should happen: %d", len(c.occs))
	}
}

func TestFlushEventSelective(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	e1 := mustPrim(t, d, "e1", "C", "m1", event.End, 0)
	e2 := mustPrim(t, d, "e2", "C", "m2", event.End, 0)
	e3 := mustPrim(t, d, "e3", "C", "m3", event.End, 0)
	if _, err := d.Seq("s12", e1, e2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seq("s32", e3, e2); err != nil {
		t.Fatal(err)
	}
	var c12, c32 collector
	if _, err := d.Subscribe("s12", Recent, &c12); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe("s32", Recent, &c32); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("C", "m1", event.End, 1, nil, 1)
	d.SignalMethod("C", "m3", event.End, 1, nil, 1)
	if err := d.FlushEvent("s12"); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("C", "m2", event.End, 1, nil, 1)
	if len(c12.occs) != 0 {
		t.Fatalf("s12 state survived selective flush: %v", c12.leafNames())
	}
	if len(c32.occs) != 1 {
		t.Fatalf("s32 wrongly flushed: %d", len(c32.occs))
	}
	if err := d.FlushEvent("nope"); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("FlushEvent unknown: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	e1 := mustPrim(t, d, "e1", "C", "m1", event.End, 0)
	e2 := mustPrim(t, d, "e2", "C", "m2", event.End, 0)
	if _, err := d.And("a", e1, e2); err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := d.Subscribe("a", Recent, &c); err != nil {
		t.Fatal(err)
	}
	d.SignalMethod("C", "m1", event.End, 1, nil, 1)
	d.SignalMethod("C", "m2", event.End, 1, nil, 1)
	st := d.StatsSnapshot()
	if st.Signals != 2 || st.Detections != 1 || st.RuleFires != 1 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestLookupAndEvents(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	mustPrim(t, d, "e1", "C", "m1", event.End, 0)
	if _, err := d.Lookup("e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup("zzz"); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("Lookup unknown: %v", err)
	}
	if len(d.Events()) != 1 {
		t.Fatalf("Events()=%v", d.Events())
	}
}

func TestSubscribeUnknownEvent(t *testing.T) {
	d := New()
	if _, err := d.Subscribe("ghost", Recent, &collector{}); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("Subscribe(ghost): %v", err)
	}
}

func TestOperatorConstructorValidation(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	e1 := mustPrim(t, d, "e1", "C", "m1", event.End, 0)
	if _, err := d.Any("bad", 0, e1); !errors.Is(err, ErrBadOperand) {
		t.Fatalf("Any(0): %v", err)
	}
	if _, err := d.Any("bad", 2, e1); !errors.Is(err, ErrBadOperand) {
		t.Fatalf("Any(2 of 1): %v", err)
	}
	if _, err := d.Plus("bad", e1, 0); !errors.Is(err, ErrBadOperand) {
		t.Fatalf("Plus(0): %v", err)
	}
	if _, err := d.P("bad", e1, 0, e1); !errors.Is(err, ErrBadOperand) {
		t.Fatalf("P(period 0): %v", err)
	}
}

func TestTraceKindStrings(t *testing.T) {
	for k, want := range map[TraceKind]string{
		TraceSignal: "signal", TraceDetect: "detect", TraceNotifyRule: "notify", TraceFlush: "flush",
	} {
		if k.String() != want {
			t.Errorf("%d String()=%q want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(TraceKind(42).String(), "42") {
		t.Error("unknown TraceKind")
	}
}

func TestDemandDrivenNoWorkWithoutSubscribers(t *testing.T) {
	d := New()
	d.DeclareClass("C", "")
	e1 := mustPrim(t, d, "e1", "C", "m1", event.End, 0)
	e2 := mustPrim(t, d, "e2", "C", "m2", event.End, 0)
	if _, err := d.And("a", e1, e2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.SignalMethod("C", "m1", event.End, 1, nil, 1)
		d.SignalMethod("C", "m2", event.End, 1, nil, 1)
	}
	if st := d.StatsSnapshot(); st.Detections != 0 {
		t.Fatalf("detections without subscribers: %+v", st)
	}
}

func TestSignalOccurrenceByName(t *testing.T) {
	d := New()
	if _, err := d.DefineExplicit("remote_evt"); err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := d.Subscribe("remote_evt", Recent, &c); err != nil {
		t.Fatal(err)
	}
	occ := &event.Occurrence{Name: "remote_evt", Kind: event.KindExplicit, App: "app-2", Txn: 3}
	if err := d.SignalOccurrence(occ); err != nil {
		t.Fatal(err)
	}
	if len(c.occs) != 1 || c.occs[0].App != "app-2" {
		t.Fatalf("remote occurrence: %v", c.occs)
	}
	if err := d.SignalOccurrence(&event.Occurrence{Name: "ghost", Kind: event.KindExplicit}); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("unknown occurrence: %v", err)
	}
}

func ExampleDetector_And() {
	d := New()
	d.DeclareClass("STOCK", "")
	e1, _ := d.DefinePrimitive("e1", "STOCK", "sell_stock", event.End, 0)
	e2, _ := d.DefinePrimitive("e2", "STOCK", "set_price", event.Begin, 0)
	if _, err := d.And("e4", e1, e2); err != nil {
		panic(err)
	}
	_, _ = d.Subscribe("e4", Recent, SubscriberFunc(func(occ *event.Occurrence, ctx Context) {
		fmt.Println("detected", occ.Name, "with", len(occ.Leaves()), "constituents")
	}))
	d.SignalMethod("STOCK", "sell_stock", event.End, 1, nil, 1)
	d.SignalMethod("STOCK", "set_price", event.Begin, 1, nil, 1)
	// Output: detected e4 with 2 constituents
}
