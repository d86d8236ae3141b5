package detector

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/event"
)

// These tests exercise the lock-free signal fast path under the race
// detector: concurrent SignalMethod callers racing with Subscribe/unsub
// churn (which rebuilds the admission index), transaction flushes, and
// lock-free StatsSnapshot readers. The detection count must come out
// exactly as in a serial run — each signal of a subscribed per-goroutine
// event produces exactly one notification no matter how the goroutines
// interleave, because admission is linearized at the index pointer load
// and propagation stays serialized under the graph mutex.

const (
	stressGoroutines = 8
	stressSignals    = 400
)

// buildStressGraph defines one counted primitive method event per
// goroutine, an uncounted churn event, and a composite over the churn
// event so operator state is exercised too. It returns the shared hit
// counter.
func buildStressGraph(t *testing.T, d *Detector) *atomic.Uint64 {
	t.Helper()
	d.DeclareClass("SECURITY", "")
	d.DeclareClass("STOCK", "SECURITY")
	var hits atomic.Uint64
	count := SubscriberFunc(func(occ *event.Occurrence, _ Context) { hits.Add(1) })
	for g := 0; g < stressGoroutines; g++ {
		name := fmt.Sprintf("price_%d", g)
		method := fmt.Sprintf("set_price_%d", g)
		// Half the events are defined on the superclass so the flattened
		// ancestor lists of the admission index are on the hot path.
		class := "STOCK"
		if g%2 == 0 {
			class = "SECURITY"
		}
		mustPrim(t, d, name, class, method, event.Begin, 0)
		if _, err := d.Subscribe(name, Recent, count); err != nil {
			t.Fatal(err)
		}
	}
	churn := mustPrim(t, d, "churn", "STOCK", "churn_m", event.Begin, 0)
	other := mustPrim(t, d, "other", "STOCK", "other_m", event.Begin, 0)
	if _, err := d.Seq("churn;other", churn, other); err != nil {
		t.Fatal(err)
	}
	return &hits
}

// signalStress issues every goroutine's signal stream; when concurrent is
// false the same streams run back-to-back on one goroutine.
func signalStress(t *testing.T, d *Detector, concurrent bool) {
	t.Helper()
	work := func(g int) {
		method := fmt.Sprintf("set_price_%d", g)
		class := "STOCK" // subclass signals must match superclass events too
		for i := 0; i < stressSignals; i++ {
			d.SignalMethod(class, method, event.Begin, event.OID(g), nil, uint64(g+1))
			// A signal nothing subscribes to: must take the lock-free
			// rejection path and change no counts.
			d.SignalMethod("STOCK", "never_defined", event.Begin, 0, nil, uint64(g+1))
		}
	}
	if !concurrent {
		for g := 0; g < stressGoroutines; g++ {
			work(g)
		}
		return
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	// Subscription churn on the uncounted event forces admission-index
	// invalidation and rebuild while signals are in flight.
	aux.Add(1)
	go func() {
		defer aux.Done()
		sink := SubscriberFunc(func(*event.Occurrence, Context) {})
		for {
			select {
			case <-stop:
				return
			default:
			}
			unsub, err := d.Subscribe("churn", Recent, sink)
			if err != nil {
				t.Error(err)
				return
			}
			d.SignalMethod("STOCK", "churn_m", event.Begin, 1, nil, 99)
			unsub()
		}
	}()
	// Transaction commits flush state for transactions the signal
	// goroutines are still writing under.
	aux.Add(1)
	go func() {
		defer aux.Done()
		txn := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.SignalTxn(event.CommitTransaction, txn)
			txn = txn%stressGoroutines + 1
		}
	}()
	// Lock-free stats readers must never block or tear.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = d.StatsSnapshot()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < stressGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			work(g)
		}(g)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
}

func TestConcurrentSignalsMatchSerialDetections(t *testing.T) {
	want := uint64(stressGoroutines * stressSignals)

	serial := New()
	serialHits := buildStressGraph(t, serial)
	signalStress(t, serial, false)
	if got := serialHits.Load(); got != want {
		t.Fatalf("serial run: %d detections, want %d", got, want)
	}

	conc := New()
	concHits := buildStressGraph(t, conc)
	signalStress(t, conc, true)
	if got := concHits.Load(); got != want {
		t.Fatalf("concurrent run: %d detections, want %d (serial run got %d)",
			got, want, serialHits.Load())
	}

	// The counted signal streams are identical in both runs, so the
	// subscriber-visible stats must agree on rule fires for them; the
	// concurrent run adds churn/txn traffic, so only a lower bound holds
	// for raw signal counts.
	if s := conc.StatsSnapshot(); s.RuleFires < want {
		t.Fatalf("stats lost rule fires: %+v, want >= %d", s, want)
	}
}

// TestConcurrentMaskToggle races mask flips against signals: every
// delivered notification must have been admitted while unmasked, and the
// detector must end consistent (no deadlock, counters readable).
func TestConcurrentMaskToggle(t *testing.T) {
	d := New()
	d.DeclareClass("STOCK", "")
	mustPrim(t, d, "p", "STOCK", "m", event.Begin, 0)
	var hits atomic.Uint64
	if _, err := d.Subscribe("p", Recent, SubscriberFunc(func(*event.Occurrence, Context) {
		hits.Add(1)
	})); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.MaskTxns([]uint64{1})
			d.UnmaskTxns([]uint64{1})
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < stressSignals; i++ {
				d.SignalMethod("STOCK", "m", event.Begin, 1, nil, 1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	flipper.Wait()
	// Unmasked at rest: one more signal must be delivered.
	before := hits.Load()
	d.SignalMethod("STOCK", "m", event.Begin, 1, nil, 1)
	if hits.Load() != before+1 {
		t.Fatalf("detector wedged after mask churn: %d -> %d", before, hits.Load())
	}
	if s := d.StatsSnapshot(); s.Signals < before {
		t.Fatalf("signal counter went backwards: %+v (delivered %d)", s, before)
	}
}

// TestConcurrentMergesMatchSerialDetections races operator attachment —
// which merges the operands' components — against signals flowing through
// those same components. Phase 1 checks that signals arriving while the
// union-find is merging under them are never lost or doubled (primitive
// counts are exact regardless of interleaving). Phase 2 then checks the
// per-component serialization guarantee: with exactly one signaller per
// merged component, per-component arrival order is that goroutine's
// program order, so the concurrent run's operator detection count must
// equal a serial run of the same per-pair streams.
func TestConcurrentMergesMatchSerialDetections(t *testing.T) {
	const (
		nPairs = 6
		rounds = 200
	)
	type fixture struct {
		d        *Detector
		a, b     [nPairs]Node
		primHits atomic.Uint64
		andHits  atomic.Uint64
	}
	build := func(t *testing.T) *fixture {
		t.Helper()
		f := &fixture{d: New()}
		f.d.AutoFlush = false
		countPrim := SubscriberFunc(func(*event.Occurrence, Context) { f.primHits.Add(1) })
		for i := 0; i < nPairs; i++ {
			class := fmt.Sprintf("MRG%d", i)
			f.d.DeclareClass(class, "")
			f.a[i] = mustPrim(t, f.d, fmt.Sprintf("mrg_a%d", i), class, "ma", event.Begin, 0)
			f.b[i] = mustPrim(t, f.d, fmt.Sprintf("mrg_b%d", i), class, "mb", event.Begin, 0)
			for _, name := range []string{fmt.Sprintf("mrg_a%d", i), fmt.Sprintf("mrg_b%d", i)} {
				if _, err := f.d.Subscribe(name, Recent, countPrim); err != nil {
					t.Fatal(err)
				}
			}
		}
		return f
	}
	attach := func(t *testing.T, f *fixture) {
		t.Helper()
		countAnd := SubscriberFunc(func(*event.Occurrence, Context) { f.andHits.Add(1) })
		for i := 0; i < nPairs; i++ {
			name := fmt.Sprintf("mrg_and%d", i)
			if _, err := f.d.And(name, f.a[i], f.b[i]); err != nil {
				t.Fatal(err)
			}
			if _, err := f.d.Subscribe(name, Recent, countAnd); err != nil {
				t.Fatal(err)
			}
		}
	}
	signal := func(f *fixture, i int) {
		class := fmt.Sprintf("MRG%d", i)
		for r := 0; r < rounds; r++ {
			f.d.SignalMethod(class, "ma", event.Begin, 1, nil, uint64(i+1))
			f.d.SignalMethod(class, "mb", event.Begin, 1, nil, uint64(i+1))
		}
	}
	run := func(f *fixture, concurrent bool) {
		if !concurrent {
			for i := 0; i < nPairs; i++ {
				signal(f, i)
			}
			return
		}
		var wg sync.WaitGroup
		for i := 0; i < nPairs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				signal(f, i)
			}(i)
		}
		wg.Wait()
	}

	// Phase 1: attachments (and the component merges they imply) race the
	// signal streams. Composite counts depend on attach timing, but every
	// signal must reach its primitive subscriber exactly once.
	f := build(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(f, true)
	}()
	attach(t, f)
	wg.Wait()
	wantPrim := uint64(nPairs * rounds * 2)
	if got := f.primHits.Load(); got != wantPrim {
		t.Fatalf("phase 1 primitive notifications: got %d, want %d", got, wantPrim)
	}
	if got := f.andHits.Load(); got > wantPrim {
		t.Fatalf("phase 1 AND detections exceed signal count: %d > %d", got, wantPrim)
	}

	// Phase 2: the merged components are stable and each has exactly one
	// signaller, so the detection count is deterministic and must match a
	// fully serial run of the same streams.
	f.d.FlushAll()
	f.primHits.Store(0)
	f.andHits.Store(0)
	run(f, true)

	s := build(t)
	attach(t, s)
	run(s, false)
	if got, want := f.primHits.Load(), s.primHits.Load(); got != want {
		t.Fatalf("phase 2 primitive notifications: concurrent %d, serial %d", got, want)
	}
	if got, want := f.andHits.Load(), s.andHits.Load(); got != want {
		t.Fatalf("phase 2 AND detections: concurrent %d, serial %d", got, want)
	}
}

// TestConcurrentBatchAndSingleSignals mixes SignalBatch callers with
// single-signal callers; totals must equal the sum of both streams.
func TestConcurrentBatchAndSingleSignals(t *testing.T) {
	d := New()
	d.DeclareClass("STOCK", "")
	mustPrim(t, d, "p", "STOCK", "m", event.Begin, 0)
	var hits atomic.Uint64
	if _, err := d.Subscribe("p", Recent, SubscriberFunc(func(*event.Occurrence, Context) {
		hits.Add(1)
	})); err != nil {
		t.Fatal(err)
	}
	const (
		batchers  = 3
		singles   = 3
		batchSize = 16
		rounds    = 50
	)
	var wg sync.WaitGroup
	for b := 0; b < batchers; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]event.Occurrence, batchSize)
			for i := range batch {
				batch[i] = event.Occurrence{
					Kind:     event.KindMethod,
					Class:    "STOCK",
					Method:   "m",
					Modifier: event.Begin,
					Object:   1,
					Txn:      1,
				}
			}
			for r := 0; r < rounds; r++ {
				if _, err := d.SignalBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for s := 0; s < singles; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d.SignalMethod("STOCK", "m", event.Begin, 1, nil, 1)
			}
		}()
	}
	wg.Wait()
	want := uint64(batchers*batchSize*rounds + singles*rounds)
	if got := hits.Load(); got != want {
		t.Fatalf("mixed batch/single detections: got %d, want %d", got, want)
	}
}
