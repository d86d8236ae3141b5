package detector

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
)

// These tests pin "one path, two entries": a signal takes the same routed
// deliver whether it enters lock-free through the published index or
// serialized on a rebuilt one, and whether or not a tracer is watching.

// pathsPrim is one primitive event of a generated graph.
type pathsPrim struct {
	name, class, method string
	mod                 event.Modifier
	inst                event.OID
}

// pathsOp is one step of a generated signal stream; batch > 0 sends that
// many copies of the method signal through SignalBatch.
type pathsOp struct {
	explicit      string // SignalExplicit name, "" for a method signal
	class, method string
	mod           event.Modifier
	oid           event.OID
	txn           uint64
	commit        bool // SignalTxn(commit) of txn instead of a signal
	batch         int
}

// pathsGroup is a family of classes, the events defined over them and a
// signal stream that reaches nothing outside the family, so groups can be
// driven from different goroutines without sharing a component.
type pathsGroup struct {
	super  map[string]string
	prims  []pathsPrim
	stream []pathsOp
}

// pathsNote is one subscriber notification.
type pathsNote struct {
	sub    string
	ctx    Context
	seq    uint64
	leaves string // "name#i ..." with i the stream position of each leaf
}

// pathsRec collects notifications per component, in arrival order.
type pathsRec struct {
	mu    sync.Mutex
	notes map[uint64][]pathsNote // by component id
}

type pathsSub struct {
	rec  *pathsRec
	node Node
}

func (s pathsSub) Notify(occ *event.Occurrence, ctx Context) {
	var b strings.Builder
	for _, l := range occ.Leaves() {
		i, _ := l.Params.Get("i")
		fmt.Fprintf(&b, "%s#%v ", l.Name, i)
	}
	comp := s.node.component().id // the caller holds that component's lock
	s.rec.mu.Lock()
	s.rec.notes[comp] = append(s.rec.notes[comp], pathsNote{sub: s.node.Name(), ctx: ctx, seq: occ.Seq, leaves: b.String()})
	s.rec.mu.Unlock()
}

// genPathsGroups generates the groups' classes, primitives and streams.
func genPathsGroups(rng *rand.Rand, groups, streamLen int) []*pathsGroup {
	out := make([]*pathsGroup, groups)
	for g := range out {
		cls := func(s string) string { return fmt.Sprintf("G%d%s", g, s) }
		grp := &pathsGroup{super: map[string]string{
			cls("A"): "", cls("B"): cls("A"), cls("C"): cls("B"), cls("D"): "",
		}}
		classes := []string{cls("A"), cls("B"), cls("C"), cls("D")}
		for i := 0; i < 10; i++ {
			p := pathsPrim{
				name:   fmt.Sprintf("g%dp%d", g, i),
				class:  classes[rng.Intn(len(classes))],
				method: fmt.Sprintf("m%d", rng.Intn(3)),
				mod:    event.Modifier(rng.Intn(2)),
			}
			if rng.Intn(3) == 0 {
				p.inst = event.OID(1 + rng.Intn(3))
			}
			grp.prims = append(grp.prims, p)
		}
		for i := 0; i < streamLen; i++ {
			op := pathsOp{txn: uint64(g*10 + 1 + rng.Intn(3))}
			switch r := rng.Intn(20); {
			case r == 0:
				op.commit = true
			case r < 3:
				op.explicit = fmt.Sprintf("g%dx%d", g, rng.Intn(3))
			default:
				op.class = classes[rng.Intn(len(classes))]
				op.method = fmt.Sprintf("m%d", rng.Intn(3))
				op.mod = event.Modifier(rng.Intn(2))
				op.oid = event.OID(1 + rng.Intn(4))
				if r == 3 {
					op.batch = 1 + rng.Intn(3)
				}
			}
			grp.stream = append(grp.stream, op)
		}
		out[g] = grp
	}
	return out
}

// buildPathsGraph defines every group's events in d — primitives, three
// explicit events (x2 stays unsubscribed and unused), and SEQ / AND / A*
// composites over random members of the group, which merges some of its
// components and leaves others alone — and subscribes a recording
// subscriber to each. The rng must be seeded alike for graphs to be alike.
func buildPathsGraph(t *testing.T, d *Detector, rng *rand.Rand, groups []*pathsGroup) *pathsRec {
	t.Helper()
	rec := &pathsRec{notes: map[uint64][]pathsNote{}}
	for g, grp := range groups {
		for c, s := range grp.super {
			d.DeclareClass(c, s)
		}
		var nodes []Node
		subscribe := func(n Node, ctx Context) {
			if _, err := d.Subscribe(n.Name(), ctx, pathsSub{rec, n}); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range grp.prims {
			n, err := d.DefinePrimitive(p.name, p.class, p.method, p.mod, p.inst)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
			if i%2 == 0 { // the others are live only through an operator, or not at all
				subscribe(n, Recent)
			}
		}
		for i := 0; i < 3; i++ {
			n, err := d.DefineExplicit(fmt.Sprintf("g%dx%d", g, i))
			if err != nil {
				t.Fatal(err)
			}
			if i < 2 {
				nodes = append(nodes, n)
			}
		}
		for i := 0; i < 5; i++ {
			pick := func() Node { return nodes[rng.Intn(len(nodes))] }
			name := fmt.Sprintf("g%dc%d", g, i)
			var n Node
			var err error
			switch rng.Intn(3) {
			case 0:
				n, err = d.Seq(name, pick(), pick())
			case 1:
				n, err = d.And(name, pick(), pick())
			default:
				n, err = d.AStar(name, pick(), pick(), pick())
			}
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
			subscribe(n, Contexts()[rng.Intn(len(Contexts()))])
		}
	}
	return rec
}

// runPathsStream sends one group's stream into d; before runs ahead of
// every entry-point call.
func runPathsStream(t *testing.T, d *Detector, grp *pathsGroup, before func()) {
	for i, op := range grp.stream {
		before()
		params := event.NewParams("i", i)
		switch {
		case op.commit:
			d.SignalTxn(event.CommitTransaction, op.txn)
		case op.explicit != "":
			if err := d.SignalExplicit(op.explicit, params, op.txn); err != nil {
				t.Error(err)
			}
		case op.batch > 0:
			occs := make([]event.Occurrence, op.batch)
			for j := range occs {
				occs[j] = event.Occurrence{Kind: event.KindMethod, Class: op.class, Method: op.method,
					Modifier: op.mod, Object: op.oid, Params: params, Txn: op.txn}
			}
			if n, err := d.SignalBatch(occs); n != len(occs) || err != nil {
				t.Errorf("SignalBatch: n=%d err=%v", n, err)
			}
		default:
			d.SignalMethod(op.class, op.method, op.mod, op.oid, params, op.txn)
		}
	}
}

// wantPrimitiveFires is the reference for routing, written the slow way: a
// subscribed primitive is notified of a method signal when method and
// modifier agree, the instance restriction admits the object, and the
// signalled class is the primitive's class or descends from it.
func wantPrimitiveFires(grp *pathsGroup) map[string]int {
	want := map[string]int{}
	for _, op := range grp.stream {
		if op.commit || op.explicit != "" {
			continue
		}
		for i, p := range grp.prims {
			if i%2 != 0 || p.method != op.method || p.mod != op.mod || p.inst != 0 && p.inst != op.oid {
				continue
			}
			for c := op.class; c != ""; c = grp.super[c] {
				if c == p.class {
					want[p.name] += max(1, op.batch)
					break
				}
			}
		}
	}
	return want
}

// TestSerializedEntryMatchesRoutedEntry runs one seeded graph and signal
// stream three ways — through the lock-free entry; with the index dropped
// before every signal, so every signal enters serialized; and one goroutine
// per group while another keeps changing the graph's structure, so signals
// find the index gone or going stale under them — and requires the same
// notifications in the same order within every component, the same stats,
// Seq order within every component, and the primitive firing counts of the
// reference walk.
func TestSerializedEntryMatchesRoutedEntry(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		groups := genPathsGroups(rand.New(rand.NewSource(seed)), 4, 300)
		type result struct {
			notes map[uint64][]pathsNote
			stats Stats
		}
		run := func(mode string) result {
			d := New()
			rec := buildPathsGraph(t, d, rand.New(rand.NewSource(seed+100)), groups)
			switch mode {
			case "routed":
				for _, grp := range groups {
					runPathsStream(t, d, grp, func() {})
				}
				if d.obs.fastHits.Load() == 0 {
					t.Fatal("no signal took the lock-free entry")
				}
			case "serialized":
				for _, grp := range groups {
					runPathsStream(t, d, grp, func() { d.admit.Store(nil) })
				}
				if hits := d.obs.fastHits.Load() + d.obs.fastNoSub.Load(); hits != 0 {
					t.Fatalf("%d signals took the lock-free entry with the index dropped", hits)
				}
			case "churned":
				if _, err := d.DefineExplicit("churn"); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				var done atomic.Bool
				for _, grp := range groups {
					wg.Add(1)
					go func() {
						defer wg.Done()
						runPathsStream(t, d, grp, func() {})
					}()
				}
				churned := make(chan struct{})
				go func() {
					defer close(churned)
					for !done.Load() {
						unsub, err := d.Subscribe("churn", Recent, SubscriberFunc(func(*event.Occurrence, Context) {}))
						if err != nil {
							t.Error(err)
							return
						}
						unsub()
					}
				}()
				wg.Wait()
				done.Store(true)
				<-churned
			}
			return result{notes: rec.notes, stats: d.StatsSnapshot()}
		}
		want := run("routed")
		fires := map[string]int{}
		for _, notes := range want.notes {
			for _, n := range notes {
				if strings.Contains(n.sub, "p") {
					fires[n.sub]++
				}
			}
		}
		ref := map[string]int{}
		for _, grp := range groups {
			for name, n := range wantPrimitiveFires(grp) {
				ref[name] = n
			}
		}
		if !reflect.DeepEqual(fires, ref) {
			t.Fatalf("seed %d: primitive firings %v, reference walk says %v", seed, fires, ref)
		}
		if want.stats.Detections == 0 || len(want.notes) < 2*len(groups) {
			t.Fatalf("seed %d: %d detections in %d components — test vacuous", seed, want.stats.Detections, len(want.notes))
		}
		for _, mode := range []string{"routed", "serialized", "churned"} {
			got := want
			if mode != "routed" {
				got = run(mode)
			}
			if got.stats != want.stats {
				t.Errorf("seed %d %s: stats %+v, routed %+v", seed, mode, got.stats, want.stats)
			}
			if len(got.notes) != len(want.notes) {
				t.Errorf("seed %d %s: notifications in %d components, routed %d", seed, mode, len(got.notes), len(want.notes))
			}
			for comp, notes := range got.notes {
				// Seq values depend on how the entries interleave on the one
				// clock; what must hold is Seq order within the component.
				var last uint64
				for i := range notes {
					if notes[i].seq == 0 || notes[i].seq < last {
						t.Fatalf("seed %d %s component %d: Seq %d after %d", seed, mode, comp, notes[i].seq, last)
					}
					last, notes[i].seq = notes[i].seq, 0
				}
			}
			for comp, notes := range got.notes {
				if !reflect.DeepEqual(notes, want.notes[comp]) {
					t.Errorf("seed %d %s component %d: notifications differ from the routed run\n got %v\nwant %v",
						seed, mode, comp, notes, want.notes[comp])
				}
			}
		}
	}
}

// TestStaleIndexRestartsSerialized holds a component's lock while a signal
// routed to it waits, invalidates the index, and lets go: the signal must
// find the index stale, fire nothing on it, and be delivered exactly once
// by the serialized entry.
func TestStaleIndexRestartsSerialized(t *testing.T) {
	d := New()
	buildDisjointSeqs(t, d, 1)
	var fired atomic.Uint64
	if _, err := d.Subscribe("b0", Recent, SubscriberFunc(func(*event.Occurrence, Context) { fired.Add(1) })); err != nil {
		t.Fatal(err)
	}
	a, _ := d.Lookup("a0")
	comp := a.component()
	rounds := uint64(0)
	for d.obs.fastStale.Load() == 0 {
		if rounds++; rounds > 10000 {
			t.Fatal("no signal ever found the index stale")
		}
		d.SignalMethod("C", "a0", event.End, 1, nil, 1) // publishes the index if it is gone
		comp.mu.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			d.SignalMethod("C", "b0", event.End, 1, nil, 1)
		}()
		time.Sleep(time.Millisecond) // usually enough for the signal to reach the lock
		d.admit.Store(nil)
		comp.mu.Unlock()
		<-done
		if got := fired.Load(); got != rounds {
			t.Fatalf("round %d: b0 fired %d times", rounds, got)
		}
	}
}

// seqTracer records the Seq of every raw input it is shown, per component:
// buildDisjointSeqs names the two methods of component i "a<i>" and "b<i>".
type seqTracer struct {
	mu   sync.Mutex
	seqs map[string][]uint64
}

func (s *seqTracer) Trace(kind TraceKind, occ *event.Occurrence, _ Context, _ string) {
	if kind != TraceRaw {
		return
	}
	s.mu.Lock()
	s.seqs[occ.Method[1:]] = append(s.seqs[occ.Method[1:]], occ.Seq)
	s.mu.Unlock()
}

// buildDisjointSeqs defines n independent SEQ(a_i, b_i) expressions on
// methods "a<i>" / "b<i>" of class C, each in a component of its own, with
// one counting subscriber each.
func buildDisjointSeqs(t *testing.T, d *Detector, n int) []*atomic.Uint64 {
	t.Helper()
	d.DeclareClass("C", "")
	fired := make([]*atomic.Uint64, n)
	for i := 0; i < n; i++ {
		a, _ := d.DefinePrimitive(fmt.Sprintf("a%d", i), "C", fmt.Sprintf("a%d", i), event.End, 0)
		b, _ := d.DefinePrimitive(fmt.Sprintf("b%d", i), "C", fmt.Sprintf("b%d", i), event.End, 0)
		name := fmt.Sprintf("s%d", i)
		if _, err := d.Seq(name, a, b); err != nil {
			t.Fatal(err)
		}
		cnt := new(atomic.Uint64)
		fired[i] = cnt
		if _, err := d.Subscribe(name, Chronicle, SubscriberFunc(func(*event.Occurrence, Context) { cnt.Add(1) })); err != nil {
			t.Fatal(err)
		}
	}
	return fired
}

// signalDisjointSeqs drives each of the n expressions from two goroutines
// at once (one signalling a_i, one b_i), rounds times each.
func signalDisjointSeqs(d *Detector, n, rounds int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		for _, m := range []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					d.SignalMethod("C", m, event.End, 1, nil, 1)
				}
			}()
		}
	}
	wg.Wait()
}

// TestMultiComponentSignalHoldsEveryLock: one method signal that fires a
// primitive in each of several components, raced against signallers of the
// single components, loses nothing (and, under -race, touches no component
// it does not hold).
func TestMultiComponentSignalHoldsEveryLock(t *testing.T) {
	const comps, rounds = 4, 300
	d := New()
	buildDisjointSeqs(t, d, comps)
	var all atomic.Uint64
	for i := 0; i < comps; i++ {
		// all<i> fires on method "all" and is tied into component i.
		n, _ := d.DefinePrimitive(fmt.Sprintf("all%d", i), "C", "all", event.End, 0)
		b, _ := d.Lookup(fmt.Sprintf("b%d", i))
		name := fmt.Sprintf("u%d", i)
		if _, err := d.Seq(name, n, b); err != nil {
			t.Fatal(err)
		}
		sub := SubscriberFunc(func(*event.Occurrence, Context) { all.Add(1) })
		if _, err := d.Subscribe(n.Name(), Recent, sub); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Subscribe(name, Recent, SubscriberFunc(func(*event.Occurrence, Context) {})); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d.SignalMethod("C", "all", event.End, 1, nil, 1)
			}
		}()
	}
	signalDisjointSeqs(d, comps, rounds)
	wg.Wait()
	if got := all.Load(); got != 2*rounds*comps {
		t.Fatalf("the multi-component signal fired %d primitives, want %d", got, 2*rounds*comps)
	}
}

// TestTracerDoesNotSelectThePath: with a tracer installed, concurrent
// signallers still enter lock-free (the fast-path hit counter moves), and
// the tracer sees each component's inputs in Seq order.
func TestTracerDoesNotSelectThePath(t *testing.T) {
	const comps, rounds = 4, 500
	d := New()
	buildDisjointSeqs(t, d, comps)
	reg := obs.NewRegistry()
	d.RegisterMetrics(reg)
	tr := &seqTracer{seqs: map[string][]uint64{}}
	d.SetTracer(tr)
	d.SignalMethod("C", "a0", event.End, 1, nil, 1) // first signal rebuilds the index, serialized
	signalDisjointSeqs(d, comps, rounds)

	hits, _ := reg.Get("sentinel_detector_fastpath_hits_total")
	if hits.Value < 2*comps*rounds {
		t.Fatalf("sentinel_detector_fastpath_hits_total = %v with a tracer installed, want at least %d", hits.Value, 2*comps*rounds)
	}
	total := 0
	for comp, seqs := range tr.seqs {
		var last uint64
		for _, s := range seqs {
			if s <= last {
				t.Fatalf("component %s: Seq %d traced after %d", comp, s, last)
			}
			last = s
		}
		total += len(seqs)
	}
	if want := 2*comps*rounds + 1; total != want {
		t.Fatalf("tracer saw %d raw inputs, want %d", total, want)
	}
}

// TestRecordReplayUnderConcurrency: a log recorded while goroutines signal
// disjoint components concurrently replays, into a fresh identical graph,
// to the same firing count per rule.
func TestRecordReplayUnderConcurrency(t *testing.T) {
	const comps, rounds = 4, 300
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	online := New()
	onlineFired := buildDisjointSeqs(t, online, comps)
	online.SetTracer(log.Recorder())
	signalDisjointSeqs(online, comps, rounds)
	online.SetTracer(nil)
	if log.Len() != 2*comps*rounds {
		t.Fatalf("recorded %d occurrences, want %d", log.Len(), 2*comps*rounds)
	}

	batch := New()
	batchFired := buildDisjointSeqs(t, batch, comps)
	if n, err := Replay(&buf, batch); err != nil || n != 2*comps*rounds {
		t.Fatalf("replayed %d occurrences, err=%v", n, err)
	}
	detected := uint64(0)
	for i := range onlineFired {
		on, off := onlineFired[i].Load(), batchFired[i].Load()
		if on != off {
			t.Errorf("rule s%d fired %d times online, %d on replay", i, on, off)
		}
		detected += on
	}
	if detected == 0 {
		t.Fatal("nothing detected — test vacuous")
	}
}
