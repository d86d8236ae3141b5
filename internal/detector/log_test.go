package detector

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/seglog"
)

// buildGraph defines the standard test graph on a fresh detector and
// returns collectors for each expression.
func buildGraph(t *testing.T, d *Detector) map[string]*collector {
	t.Helper()
	d.DeclareClass("C", "")
	e1, err := d.DefinePrimitive("e1", "C", "m1", event.End, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d.DefinePrimitive("e2", "C", "m2", event.End, 0)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := d.DefinePrimitive("e3", "C", "m3", event.End, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seq("seq", e1, e2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.And("and", e2, e3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Not("not", e1, e2, e3); err != nil {
		t.Fatal(err)
	}
	out := map[string]*collector{}
	for _, name := range []string{"seq", "and", "not"} {
		c := &collector{}
		if _, err := d.Subscribe(name, Chronicle, c); err != nil {
			t.Fatal(err)
		}
		out[name] = c
	}
	return out
}

func TestEventLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	occ := &event.Occurrence{
		Name: "e1", Kind: event.KindMethod, Class: "C", Method: "m1",
		Modifier: event.End, Object: 3, Seq: 9, Time: 100, Txn: 4, App: "a",
		Params: event.NewParams("x", 1, "y", "s", "z", 2.5, "b", true),
	}
	if err := log.Append(occ); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 1 {
		t.Fatalf("Len=%d", log.Len())
	}
	// A composite cannot be logged.
	comp := &event.Occurrence{Name: "c", Kind: event.KindComposite, Constituents: []*event.Occurrence{occ}}
	if err := log.Append(comp); err == nil {
		t.Fatal("composite occurrence logged")
	}

	d := New()
	d.DeclareClass("C", "")
	if _, err := d.DefinePrimitive("e1", "C", "m1", event.End, 0); err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := d.Subscribe("e1", Recent, &c); err != nil {
		t.Fatal(err)
	}
	n, err := Replay(&buf, d)
	if err != nil || n != 1 {
		t.Fatalf("Replay=%d err=%v", n, err)
	}
	if len(c.occs) != 1 {
		t.Fatalf("replayed occurrences=%d", len(c.occs))
	}
	got := c.occs[0]
	if got.Object != 3 || got.Txn != 4 {
		t.Fatalf("replayed fields: %+v", got)
	}
	if v, _ := got.Params.Get("y"); v.(string) != "s" {
		t.Fatalf("replayed params: %v", got.Params)
	}
}

// Replay accepts only the recorded-stream layout: an empty stream is an
// empty log, anything else without the magic (the gob streams earlier
// versions wrote included) is an error, and a record cut short or damaged
// stops the replay with an error after the intact records were delivered.
func TestReplayRejectsForeignAndTornStreams(t *testing.T) {
	if n, err := Replay(bytes.NewReader(nil), New()); n != 0 || err != nil {
		t.Fatalf("empty stream: n=%d err=%v", n, err)
	}
	for _, foreign := range []string{"\x2b\xff\x81\x03\x01\x01\tloggedOcc", "SNTL", "SNTLEVT0 and more"} {
		if _, err := Replay(bytes.NewReader([]byte(foreign)), New()); err == nil {
			t.Fatalf("stream %q replayed", foreign)
		}
	}

	var buf bytes.Buffer
	log := NewEventLog(&buf)
	for i := 0; i < 3; i++ {
		if err := log.Append(&event.Occurrence{Name: "e", Kind: event.KindExplicit, Params: event.NewParams("i", i)}); err != nil {
			t.Fatal(err)
		}
	}
	whole := buf.Bytes()
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 1
	for name, stream := range map[string][]byte{"cut": whole[:len(whole)-2], "flipped": flipped} {
		d := New()
		if _, err := d.DefineExplicit("e"); err != nil {
			t.Fatal(err)
		}
		n, err := Replay(bytes.NewReader(stream), d)
		if n != 2 || !errors.Is(err, seglog.ErrCorrupt) {
			t.Fatalf("%s stream: n=%d err=%v, want 2 records and ErrCorrupt", name, n, err)
		}
	}
}

// E4: online and batch detection produce identical composite sequences.
func TestOnlineVsBatchEquivalence(t *testing.T) {
	type step struct {
		method string
		txn    uint64
	}
	steps := []step{
		{"m1", 1}, {"m2", 1}, {"m3", 1}, {"m1", 2}, {"m1", 2},
		{"m2", 2}, {"m3", 2}, {"m2", 3}, {"m3", 3}, {"m1", 3},
	}

	// Online run, recording the primitive stream.
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	online := New()
	online.SetTracer(log.Recorder())
	onlineCols := buildGraph(t, online)
	for _, s := range steps {
		online.SignalMethod("C", s.method, event.End, 1, nil, s.txn)
	}

	// Batch run over the recorded log.
	batch := New()
	batchCols := buildGraph(t, batch)
	if _, err := Replay(&buf, batch); err != nil {
		t.Fatal(err)
	}

	for name := range onlineCols {
		on, off := onlineCols[name].leafNames(), batchCols[name].leafNames()
		if !reflect.DeepEqual(on, off) {
			t.Errorf("%s: online=%v batch=%v", name, on, off)
		}
		if len(on) == 0 && name == "seq" {
			t.Errorf("%s never detected — test vacuous", name)
		}
	}
}

// Property: for random streams, online and batch detection agree on every
// expression in every context.
func TestQuickOnlineVsBatch(t *testing.T) {
	f := func(stream []uint8) bool {
		var buf bytes.Buffer
		log := NewEventLog(&buf)
		online := New()
		online.SetTracer(log.Recorder())
		onCols := map[Context]*collector{}
		d := online
		d.DeclareClass("C", "")
		e1, _ := d.DefinePrimitive("e1", "C", "m1", event.End, 0)
		e2, _ := d.DefinePrimitive("e2", "C", "m2", event.End, 0)
		if _, err := d.Seq("s", e1, e2); err != nil {
			return false
		}
		for _, ctx := range Contexts() {
			c := &collector{}
			if _, err := d.Subscribe("s", ctx, c); err != nil {
				return false
			}
			onCols[ctx] = c
		}
		for _, b := range stream {
			m := "m1"
			if b%2 == 1 {
				m = "m2"
			}
			online.SignalMethod("C", m, event.End, 1, nil, uint64(b%3)+1)
		}

		batch := New()
		batch.DeclareClass("C", "")
		f1, _ := batch.DefinePrimitive("e1", "C", "m1", event.End, 0)
		f2, _ := batch.DefinePrimitive("e2", "C", "m2", event.End, 0)
		if _, err := batch.Seq("s", f1, f2); err != nil {
			return false
		}
		offCols := map[Context]*collector{}
		for _, ctx := range Contexts() {
			c := &collector{}
			if _, err := batch.Subscribe("s", ctx, c); err != nil {
				return false
			}
			offCols[ctx] = c
		}
		if _, err := Replay(&buf, batch); err != nil {
			return false
		}
		for _, ctx := range Contexts() {
			if !reflect.DeepEqual(onCols[ctx].leafNames(), offCols[ctx].leafNames()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: context algebra — CHRONICLE consumes one initiator per
// detection, so it never out-fires RECENT (which retains initiators) or
// CONTINUOUS (which pairs every open initiator); CUMULATIVE consumes all
// accumulated initiators at once, so it never out-fires CHRONICLE, and
// emits at most one composite per terminator.
func TestQuickContextAlgebra(t *testing.T) {
	f := func(stream []uint8) bool {
		d := New()
		d.DeclareClass("C", "")
		e1, _ := d.DefinePrimitive("e1", "C", "m1", event.End, 0)
		e2, _ := d.DefinePrimitive("e2", "C", "m2", event.End, 0)
		if _, err := d.Seq("s", e1, e2); err != nil {
			return false
		}
		cols := map[Context]*collector{}
		for _, ctx := range Contexts() {
			c := &collector{}
			if _, err := d.Subscribe("s", ctx, c); err != nil {
				return false
			}
			cols[ctx] = c
		}
		terms := 0
		for _, b := range stream {
			if b%2 == 0 {
				d.SignalMethod("C", "m1", event.End, 1, nil, 1)
			} else {
				d.SignalMethod("C", "m2", event.End, 1, nil, 1)
				terms++
			}
		}
		return len(cols[Chronicle].occs) <= len(cols[Recent].occs) &&
			len(cols[Chronicle].occs) <= len(cols[Continuous].occs) &&
			len(cols[Cumulative].occs) <= len(cols[Chronicle].occs) &&
			len(cols[Cumulative].occs) <= terms
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
