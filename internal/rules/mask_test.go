package rules

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/obs"
)

// TestConditionMaskIsPerTransaction: while one transaction's rule
// condition runs — here it blocks — another transaction's events are
// still detected and its rules fire; what the condition itself signals,
// under its own subtransaction or its parent's id, is dropped.
func TestConditionMaskIsPerTransaction(t *testing.T) {
	e := newEnv(t)
	reg := obs.NewRegistry()
	e.det.RegisterMetrics(reg)
	drops := func() float64 {
		s, _ := reg.Get("sentinel_detector_masked_drops_total")
		return s.Value
	}
	var mu sync.Mutex
	var watched []uint64 // transaction of each e2 the Watcher fired on
	if _, err := e.rules.Define(Spec{
		Name:  "Watcher",
		Event: "e2",
		Action: func(x *Execution) error {
			mu.Lock()
			watched = append(watched, x.Occurrence.Txn)
			mu.Unlock()
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	if _, err := e.rules.Define(Spec{
		Name:  "Blocker",
		Event: "e1",
		Condition: func(x *Execution) bool {
			// Event-generating calls made by the condition: masked,
			// whichever handle of its transaction line they go through.
			e.det.SignalMethod("C", "m2", event.End, 1, nil, x.Txn.ID())
			e.det.SignalMethod("C", "m2", event.End, 1, nil, x.Txn.Parent().ID())
			close(entered)
			<-release
			return true
		},
		Action: func(*Execution) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}

	aDone := make(chan error, 1)
	go func() {
		txA, err := e.txns.Begin()
		if err != nil {
			aDone <- err
			return
		}
		e.sig("e1", txA) // runs Blocker, which blocks in its condition
		aDone <- txA.Commit()
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Blocker's condition never ran")
	}
	if got := drops(); got != 2 {
		t.Fatalf("masked_drops = %v after the condition's two signals, want 2", got)
	}

	txB, err := e.txns.Begin()
	if err != nil {
		t.Fatal(err)
	}
	e.sig("e2", txB)
	if err := txB.Commit(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]uint64(nil), watched...)
	mu.Unlock()
	if !reflect.DeepEqual(got, []uint64{txB.ID()}) {
		t.Fatalf("Watcher fired on transactions %v while another transaction's condition ran, want [%d]", got, txB.ID())
	}
	if got := drops(); got != 2 {
		t.Fatalf("masked_drops = %v: the other transaction's signals were counted as masked", got)
	}

	close(release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	// The mask went with the condition.
	txC, _ := e.txns.Begin()
	e.sig("e2", txC)
	_ = txC.Commit()
	mu.Lock()
	defer mu.Unlock()
	if len(watched) != 2 || drops() != 2 {
		t.Fatalf("after the condition returned: Watcher fired on %v, masked_drops %v", watched, drops())
	}
}

// TestConditionPanicLeavesNoMask: a condition that panics must not leave
// its transaction line masked.
func TestConditionPanicLeavesNoMask(t *testing.T) {
	e := newEnv(t)
	fired := 0
	if _, err := e.rules.Define(Spec{
		Name: "Watcher", Event: "e2",
		Action: func(*Execution) error { fired++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rules.Define(Spec{
		Name: "Bad", Event: "e1",
		Condition: func(*Execution) bool { panic("boom") },
		Action:    func(*Execution) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := e.txns.Begin()
	e.sig("e1", tx)
	e.sig("e2", tx)
	if fired != 1 {
		t.Fatalf("Watcher fired %d times after a panicking condition in the same transaction, want 1", fired)
	}
	_ = tx.Commit()
}

// TestEqualPriorityDeferredRunInDefinitionOrder: deferred rules of one
// priority class are dispatched at preCommit in the order their rewritten
// events were defined, whatever order their events occurred in — the
// order the per-rule parent edges on preCommitTransaction used to give.
func TestEqualPriorityDeferredRunInDefinitionOrder(t *testing.T) {
	e := newEnv(t)
	e.sched.Serial = true // one at a time, so dispatch order is run order
	var ran []string
	// D1..D3 on e1..e3 and D4 on e1 again (it shares D1's rewritten
	// event, so it runs right after D1 in each context).
	events := []string{"e1", "e2", "e3", "e1"}
	for i, ev := range events {
		name := fmt.Sprintf("D%d", i+1)
		if _, err := e.rules.Define(Spec{
			Name: name, Event: ev, Coupling: Deferred,
			Context: detector.Context(i % 2), // RECENT and CHRONICLE mixed
			Action:  func(*Execution) error { ran = append(ran, name); return nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	for round, order := range [][]string{{"e3", "e2", "e1"}, {"e2", "e1", "e3", "e2"}, {"e3", "e1"}} {
		ran = nil
		tx, _ := e.txns.Begin()
		for _, ev := range order {
			e.sig(ev, tx)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want := []string{"D1", "D4", "D2", "D3"}
		if round == 2 {
			want = []string{"D1", "D4", "D3"}
		}
		if !reflect.DeepEqual(ran, want) {
			t.Fatalf("round %d (events %v): deferred rules ran %v, want %v", round, order, ran, want)
		}
	}
}
