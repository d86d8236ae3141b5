// Benchmarks regenerating the quantitative side of the evaluation: the
// paper's ICDE'95 evaluation is a functionality matrix (no numeric
// tables), so each benchmark here puts a number on one mechanism the
// paper describes, in the style of the BEAST active-DBMS benchmark from
// the same research lineage. EXPERIMENTS.md maps each benchmark to its
// experiment row and records the measured shapes.
package sentinel_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	sentinel "repro"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/workload"
)

// benchDetector builds a detector with n primitive events e0..e(n-1) on
// class C methods m0..m(n-1).
func benchDetector(b *testing.B, n int) (*detector.Detector, []detector.Node) {
	b.Helper()
	d := detector.New()
	d.AutoFlush = false
	d.DeclareClass("C", "")
	nodes := make([]detector.Node, n)
	for i := 0; i < n; i++ {
		node, err := d.DefinePrimitive(fmt.Sprintf("e%d", i), "C", fmt.Sprintf("m%d", i), event.End, 0)
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = node
	}
	return d, nodes
}

func drainSub() detector.Subscriber {
	return detector.SubscriberFunc(func(*event.Occurrence, detector.Context) {})
}

// BenchmarkE1_PrimitiveSignal measures the wrapper-notification cost: one
// primitive event signalled through the per-class index to one subscriber.
func BenchmarkE1_PrimitiveSignal(b *testing.B) {
	d, _ := benchDetector(b, 1)
	if _, err := d.Subscribe("e0", detector.Recent, drainSub()); err != nil {
		b.Fatal(err)
	}
	params := event.NewParams("price", 42.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SignalMethod("C", "m0", event.End, 1, params, 1)
	}
}

// BenchmarkE1_PrimitiveSignalNoSubscriber measures the cost when nothing
// listens — the demand-driven design should make this nearly free.
func BenchmarkE1_PrimitiveSignalNoSubscriber(b *testing.B) {
	d, _ := benchDetector(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SignalMethod("C", "m0", event.End, 1, nil, 1)
	}
}

// BenchmarkE1_PrimitiveSignalParallel drives the subscribed signal path
// from concurrent goroutines (run with -cpu 1,4,8 to see scaling): the
// admission check is lock-free, but delivery serializes on the graph
// mutex, so this measures contention on the consumed-signal path.
func BenchmarkE1_PrimitiveSignalParallel(b *testing.B) {
	d, _ := benchDetector(b, 1)
	if _, err := d.Subscribe("e0", detector.Recent, drainSub()); err != nil {
		b.Fatal(err)
	}
	params := event.NewParams("price", 42.0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d.SignalMethod("C", "m0", event.End, 1, params, 1)
		}
	})
}

// BenchmarkE1_PrimitiveSignalNoSubscriberParallel is the headline case for
// the lock-free fast path: concurrent signallers of an unconsumed event
// never touch the graph mutex, so throughput should scale with -cpu.
func BenchmarkE1_PrimitiveSignalNoSubscriberParallel(b *testing.B) {
	d, _ := benchDetector(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d.SignalMethod("C", "m0", event.End, 1, nil, 1)
		}
	})
}

// benchDisjointExprs builds n independent SEQ expressions — each on its own
// class with its own two primitive events, so no two expressions share a
// node — and subscribes each in RECENT context. It returns the detector.
func benchDisjointExprs(b *testing.B, n int) *detector.Detector {
	b.Helper()
	d := detector.New()
	d.AutoFlush = false
	for i := 0; i < n; i++ {
		class := fmt.Sprintf("C%d", i)
		d.DeclareClass(class, "")
		a, err := d.DefinePrimitive(fmt.Sprintf("a%d", i), class, "m0", event.End, 0)
		mustNoErr(b, err)
		z, err := d.DefinePrimitive(fmt.Sprintf("b%d", i), class, "m1", event.End, 0)
		mustNoErr(b, err)
		name := fmt.Sprintf("s%d", i)
		if _, err := d.Seq(name, a, z); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Subscribe(name, detector.Recent, drainSub()); err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// BenchmarkE1_ParallelDisjoint drives N goroutines, each signalling its own
// independent SEQ expression (disjoint operator trees, disjoint classes).
// Run with -cpu 1,4,8: with the component-sharded graph each expression
// propagates under its own lock, so this is the case that scales with
// cores — contrast with BenchmarkE1_ParallelShared, where every goroutine
// hits the same expression and must serialize.
func BenchmarkE1_ParallelDisjoint(b *testing.B) {
	const nExpr = 8
	d := benchDisjointExprs(b, nExpr)
	methods := [2]string{"m0", "m1"}
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(atomic.AddInt64(&next, 1)-1) % nExpr
		class := fmt.Sprintf("C%d", i)
		j := 0
		for pb.Next() {
			d.SignalMethod(class, methods[j%2], event.End, 1, nil, uint64(i+1))
			j++
		}
	})
}

// discardTracer is an installed tracer that keeps nothing: what is left is
// the cost of having one.
type discardTracer struct{}

func (discardTracer) Trace(detector.TraceKind, *event.Occurrence, detector.Context, string) {}

// BenchmarkE1_PrimitiveSignalTraced is E1_PrimitiveSignal and
// E1_ParallelDisjoint with a tracer installed — the detector observed in
// the state it runs in. A tracer does not change the path a signal takes;
// it costs the trace calls and a template that is not returned to the pool.
func BenchmarkE1_PrimitiveSignalTraced(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		d, _ := benchDetector(b, 1)
		if _, err := d.Subscribe("e0", detector.Recent, drainSub()); err != nil {
			b.Fatal(err)
		}
		d.SetTracer(discardTracer{})
		params := event.NewParams("price", 42.0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.SignalMethod("C", "m0", event.End, 1, params, 1)
		}
	})
	b.Run("disjoint", func(b *testing.B) {
		const nExpr = 8
		d := benchDisjointExprs(b, nExpr)
		d.SetTracer(discardTracer{})
		methods := [2]string{"m0", "m1"}
		var next int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(atomic.AddInt64(&next, 1)-1) % nExpr
			class := fmt.Sprintf("C%d", i)
			j := 0
			for pb.Next() {
				d.SignalMethod(class, methods[j%2], event.End, 1, nil, uint64(i+1))
				j++
			}
		})
	})
}

// BenchmarkE1_ParallelShared is the contention counterpart: every
// goroutine signals the same SEQ expression, so all propagation serializes
// on that expression's component lock no matter how the graph is sharded —
// the paper's ordering constraint binds nodes that share a tree.
func BenchmarkE1_ParallelShared(b *testing.B) {
	d := benchDisjointExprs(b, 1)
	methods := [2]string{"m0", "m1"}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		j := 0
		for pb.Next() {
			d.SignalMethod("C0", methods[j%2], event.End, 1, nil, 1)
			j++
		}
	})
}

// BenchmarkE2_OperatorDetect measures end-to-end detection of each binary
// operator (alternating constituent stream, RECENT context).
func BenchmarkE2_OperatorDetect(b *testing.B) {
	ops := []struct {
		name  string
		build func(d *detector.Detector, l, r detector.Node) (detector.Node, error)
	}{
		{"AND", func(d *detector.Detector, l, r detector.Node) (detector.Node, error) { return d.And("x", l, r) }},
		{"OR", func(d *detector.Detector, l, r detector.Node) (detector.Node, error) { return d.Or("x", l, r) }},
		{"SEQ", func(d *detector.Detector, l, r detector.Node) (detector.Node, error) { return d.Seq("x", l, r) }},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			d, nodes := benchDetector(b, 2)
			if _, err := op.build(d, nodes[0], nodes[1]); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Subscribe("x", detector.Recent, drainSub()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.SignalMethod("C", fmt.Sprintf("m%d", i%2), event.End, 1, nil, 1)
			}
		})
	}
}

// BenchmarkE3_Contexts compares the four parameter contexts on the same
// SEQ expression and stream (two initiators per terminator, so context
// storage policies differ).
func BenchmarkE3_Contexts(b *testing.B) {
	for _, ctx := range detector.Contexts() {
		b.Run(ctx.String(), func(b *testing.B) {
			d, nodes := benchDetector(b, 2)
			if _, err := d.Seq("x", nodes[0], nodes[1]); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Subscribe("x", ctx, drainSub()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := "m0"
				if i%3 == 2 {
					m = "m1"
				}
				d.SignalMethod("C", m, event.End, 1, nil, 1)
			}
		})
	}
}

// BenchmarkE4_OnlineVsBatch compares online signalling against event-log
// replay of the same stream.
func BenchmarkE4_OnlineVsBatch(b *testing.B) {
	const streamLen = 1000
	build := func() *detector.Detector {
		d, nodes := benchDetector(b, 2)
		if _, err := d.Seq("x", nodes[0], nodes[1]); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Subscribe("x", detector.Chronicle, drainSub()); err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("online", func(b *testing.B) {
		d := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.SignalMethod("C", fmt.Sprintf("m%d", i%2), event.End, 1, nil, 1)
		}
	})
	b.Run("batch", func(b *testing.B) {
		// Record a fixed stream once, replay it repeatedly.
		var recorded recordedLog
		rec := build()
		log := recorded.start()
		rec.SetTracer(log.Recorder())
		for i := 0; i < streamLen; i++ {
			rec.SignalMethod("C", fmt.Sprintf("m%d", i%2), event.End, 1, nil, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N/streamLen+1; i++ {
			d := build()
			if _, err := detector.Replay(recorded.reader(), d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("signalbatch", func(b *testing.B) {
		// The same stream injected through SignalBatch directly: one graph
		// lock per stream instead of one per occurrence, and no gob
		// round-trip, isolating the batching win from the decode cost.
		stream := make([]event.Occurrence, streamLen)
		for i := range stream {
			stream[i] = event.Occurrence{
				Kind:     event.KindMethod,
				Class:    "C",
				Method:   fmt.Sprintf("m%d", i%2),
				Modifier: event.End,
				Object:   1,
				Txn:      1,
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N/streamLen+1; i++ {
			d := build()
			if _, err := d.SignalBatch(stream); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5_Coupling compares immediate vs deferred rule execution for a
// transaction with 10 triggering events.
func BenchmarkE5_Coupling(b *testing.B) {
	for _, mode := range []string{"IMMEDIATE", "DEFERRED"} {
		b.Run(mode, func(b *testing.B) {
			db, err := sentinel.Open(sentinel.Options{AppName: "bench", SerialRules: true})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			setupStock(b, db)
			db.BindAction("noop", func(*sentinel.Execution) error { return nil })
			if err := db.Exec(fmt.Sprintf(`rule R(e1, true, noop, CUMULATIVE, %s);`, mode)); err != nil {
				b.Fatal(err)
			}
			tx0, _ := db.Begin()
			obj, _ := db.New(tx0, "STOCK", map[string]any{"qty": 1 << 30})
			_ = tx0.Commit()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := db.Begin()
				for j := 0; j < 10; j++ {
					if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6_Scheduling compares prioritized-serial against concurrent
// execution of 16 rules in one priority class, each doing a little work.
func BenchmarkE6_Scheduling(b *testing.B) {
	for _, serial := range []bool{true, false} {
		name := "concurrent"
		if serial {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			db, err := sentinel.Open(sentinel.Options{AppName: "bench", SerialRules: serial, Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			setupStock(b, db)
			work := func(*sentinel.Execution) error {
				s := 0
				for i := 0; i < 20000; i++ {
					s += i
				}
				_ = s
				return nil
			}
			for i := 0; i < 16; i++ {
				name := fmt.Sprintf("busy%d", i)
				db.BindAction(name, work)
				if err := db.Exec(fmt.Sprintf(`rule R%d(e1, true, %s, RECENT, IMMEDIATE, 5);`, i, name)); err != nil {
					b.Fatal(err)
				}
			}
			tx0, _ := db.Begin()
			obj, _ := db.New(tx0, "STOCK", map[string]any{"qty": 1 << 30})
			_ = tx0.Commit()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := db.Begin()
				if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10_SharedGraph compares R rules sharing one event graph (the
// paper's design) against R disjoint copies of the same expression — the
// node-count argument of §3.1.
func BenchmarkE10_SharedGraph(b *testing.B) {
	const nRules = 16
	b.Run("shared", func(b *testing.B) {
		d, nodes := benchDetector(b, 2)
		if _, err := d.And("x", nodes[0], nodes[1]); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nRules; i++ {
			if _, err := d.Subscribe("x", detector.Recent, drainSub()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.SignalMethod("C", fmt.Sprintf("m%d", i%2), event.End, 1, nil, 1)
		}
	})
	b.Run("duplicated", func(b *testing.B) {
		d, nodes := benchDetector(b, 2)
		for i := 0; i < nRules; i++ {
			name := fmt.Sprintf("x%d", i)
			if _, err := d.And(name, nodes[0], nodes[1]); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Subscribe(name, detector.Recent, drainSub()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.SignalMethod("C", fmt.Sprintf("m%d", i%2), event.End, 1, nil, 1)
		}
	})
}

// BenchmarkE12_NestedDepth measures cascaded rule execution at several
// nesting depths (each rule raises the next event).
func BenchmarkE12_NestedDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			db, err := sentinel.Open(sentinel.Options{AppName: "bench", SerialRules: true})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := 0; i <= depth; i++ {
				if err := db.DefineExplicitEvent(fmt.Sprintf("lvl%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < depth; i++ {
				next := fmt.Sprintf("lvl%d", i+1)
				name := fmt.Sprintf("cascade%d", i)
				db.BindAction(name, func(x *sentinel.Execution) error {
					return db.RaiseEventFrom(x, next, nil)
				})
				if err := db.Exec(fmt.Sprintf(`rule R%d(lvl%d, true, %s);`, i, i, name)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := db.Begin()
				if err := db.RaiseEvent(tx, "lvl0", nil); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14_GraphVsPetri compares the Sentinel event graph against the
// SAMOS-style Petri-net baseline on identical streams: a single SEQ, and
// a fan of 8 expressions sharing one subexpression (where the event graph
// shares nodes and the net cannot).
func BenchmarkE14_GraphVsPetri(b *testing.B) {
	b.Run("single/graph", func(b *testing.B) {
		d, nodes := benchDetector(b, 2)
		if _, err := d.Seq("x", nodes[0], nodes[1]); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Subscribe("x", detector.Chronicle, drainSub()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.SignalMethod("C", fmt.Sprintf("m%d", i%2), event.End, 1, nil, 1)
		}
	})
	b.Run("single/petri", func(b *testing.B) {
		n := petri.New()
		mustNoErr(b, n.AddPrimitive("e0"))
		mustNoErr(b, n.AddPrimitive("e1"))
		mustNoErr(b, n.AddSeq("x", "e0", "e1"))
		mustNoErr(b, n.Subscribe("x", func(*event.Occurrence) {}))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			occ := &event.Occurrence{Name: fmt.Sprintf("e%d", i%2), Seq: uint64(i + 1)}
			if err := n.Signal(occ); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharedfan/graph", func(b *testing.B) {
		d, nodes := benchDetector(b, 10)
		shared, err := d.And("shared", nodes[0], nodes[1])
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("f%d", i)
			if _, err := d.Seq(name, shared, nodes[2+i]); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Subscribe(name, detector.Chronicle, drainSub()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.SignalMethod("C", fmt.Sprintf("m%d", i%10), event.End, 1, nil, 1)
		}
	})
	b.Run("sharedfan/petri", func(b *testing.B) {
		// The net cannot share the (e0 ∧ e1) subexpression: each fan
		// expression duplicates the AND subnet with its own copies of the
		// input places, and the application must deposit every e0/e1
		// occurrence into all eight copies — the real cost of having no
		// node sharing.
		n := petri.New()
		for i := 0; i < 8; i++ {
			mustNoErr(b, n.AddPrimitive(fmt.Sprintf("e0@%d", i)))
			mustNoErr(b, n.AddPrimitive(fmt.Sprintf("e1@%d", i)))
			mustNoErr(b, n.AddPrimitive(fmt.Sprintf("t@%d", i)))
			mustNoErr(b, n.AddAnd(fmt.Sprintf("and%d", i), fmt.Sprintf("e0@%d", i), fmt.Sprintf("e1@%d", i)))
			mustNoErr(b, n.AddSeq(fmt.Sprintf("f%d", i), fmt.Sprintf("and%d", i), fmt.Sprintf("t@%d", i)))
			mustNoErr(b, n.Subscribe(fmt.Sprintf("f%d", i), func(*event.Occurrence) {}))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq := uint64(i + 1)
			switch m := i % 10; {
			case m < 2: // e0 or e1: feed every duplicated subnet
				for j := 0; j < 8; j++ {
					occ := &event.Occurrence{Name: fmt.Sprintf("e%d@%d", m, j), Seq: seq}
					if err := n.Signal(occ); err != nil {
						b.Fatal(err)
					}
				}
			default: // one of the 8 distinct terminators
				occ := &event.Occurrence{Name: fmt.Sprintf("t@%d", m-2), Seq: seq}
				if err := n.Signal(occ); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkE16_StorageTxn measures the storage substrate: small
// transactions of 4 writes, with and without rule machinery.
func BenchmarkE16_StorageTxn(b *testing.B) {
	db, err := sentinel.Open(sentinel.Options{Dir: b.TempDir(), AppName: "bench", PoolSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	setupStock(b, db)
	tx0, _ := db.Begin()
	obj, _ := db.New(tx0, "STOCK", map[string]any{"qty": 1 << 30})
	_ = tx0.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin()
		for j := 0; j < 4; j++ {
			if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md §5) ----------------------------------------------

// BenchmarkAblation_ClassIndex: the per-class primitive-event index vs the
// cost of signalling a class with many irrelevant events defined on other
// classes (which the index skips entirely).
func BenchmarkAblation_ClassIndex(b *testing.B) {
	for _, otherClasses := range []int{0, 64, 512} {
		b.Run(fmt.Sprintf("otherClasses%d", otherClasses), func(b *testing.B) {
			d := detector.New()
			d.AutoFlush = false
			d.DeclareClass("C", "")
			if _, err := d.DefinePrimitive("e", "C", "m", event.End, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Subscribe("e", detector.Recent, drainSub()); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < otherClasses; i++ {
				cls := fmt.Sprintf("X%d", i)
				d.DeclareClass(cls, "")
				if _, err := d.DefinePrimitive(fmt.Sprintf("xe%d", i), cls, "m", event.End, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.SignalMethod("C", "m", event.End, 1, nil, 1)
			}
		})
	}
}

// BenchmarkAblation_ParamChainLength: composite parameter assembly cost as
// the cumulative constituent count grows — only slice headers move, so
// this should stay near-linear with a small constant.
func BenchmarkAblation_ParamChainLength(b *testing.B) {
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("constituents%d", k), func(b *testing.B) {
			d, nodes := benchDetector(b, 2)
			if _, err := d.Seq("x", nodes[0], nodes[1]); err != nil {
				b.Fatal(err)
			}
			var last *event.Occurrence
			if _, err := d.Subscribe("x", detector.Cumulative,
				detector.SubscriberFunc(func(o *event.Occurrence, _ detector.Context) { last = o })); err != nil {
				b.Fatal(err)
			}
			params := event.NewParams("v", 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					d.SignalMethod("C", "m0", event.End, 1, params, 1)
				}
				d.SignalMethod("C", "m1", event.End, 1, params, 1)
				if last == nil || len(last.AllParams()) != k+1 {
					b.Fatalf("composite params: %d", len(last.AllParams()))
				}
				last = nil
			}
		})
	}
}

// BenchmarkWorkloadMixed drives the BEAST-style mixed workload (random
// classes, methods, transaction boundaries) through a detector with a SEQ
// and an AND expression subscribed in two contexts — the "whole detector"
// number.
func BenchmarkWorkloadMixed(b *testing.B) {
	d := detector.New()
	cfg := workload.Default(1)
	for c := 0; c < cfg.Classes; c++ {
		d.DeclareClass(workload.ClassName(c), "")
	}
	e0, err := d.DefinePrimitive("w0", workload.ClassName(0), workload.MethodName(0), event.End, 0)
	mustNoErr(b, err)
	e1, err := d.DefinePrimitive("w1", workload.ClassName(1), workload.MethodName(1), event.End, 0)
	mustNoErr(b, err)
	_, err = d.Seq("wseq", e0, e1)
	mustNoErr(b, err)
	_, err = d.And("wand", e0, e1)
	mustNoErr(b, err)
	for _, ctx := range []detector.Context{detector.Recent, detector.Chronicle} {
		_, err = d.Subscribe("wseq", ctx, drainSub())
		mustNoErr(b, err)
		_, err = d.Subscribe("wand", ctx, drainSub())
		mustNoErr(b, err)
	}
	gen := workload.New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	workload.Apply(gen, d, b.N)
}

// --- helpers -----------------------------------------------------------------

func setupStock(b *testing.B, db *sentinel.Database) {
	b.Helper()
	if err := db.Exec(`
class STOCK reactive {
    event end(e1) sell_stock(qty);
    event begin(e2) && end(e3) set_price(price);
}
`); err != nil {
		b.Fatal(err)
	}
	stock, err := db.Class("STOCK")
	if err != nil {
		b.Fatal(err)
	}
	stock.DefineMethod(sentinel.Method{
		Name: "sell_stock", Params: []string{"qty"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			cur, _ := self.Get("qty").(int)
			self.Set("qty", cur-args[0].(int))
			return nil, nil
		},
	})
	stock.DefineMethod(sentinel.Method{
		Name: "set_price", Params: []string{"price"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			self.Set("price", args[0])
			return nil, nil
		},
	})
}

func mustNoErr(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// recordedLog buffers one recorded event stream for repeated replay.
type recordedLog struct{ buf bytes.Buffer }

func (r *recordedLog) start() *detector.EventLog { return detector.NewEventLog(&r.buf) }

func (r *recordedLog) reader() *bytes.Reader { return bytes.NewReader(r.buf.Bytes()) }
