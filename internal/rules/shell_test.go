package rules

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/txn"
)

// TestCommitRuleInOwnTransactionIsShed: a rule on commitTransaction runs
// in a top-level transaction of its own (its triggering transaction is
// gone), whose commit triggers the rule again. That transaction carries
// the firing, so each round nests one level deeper and the cascade limit
// sheds it; without the firing it would start over at depth 1 forever.
func TestCommitRuleInOwnTransactionIsShed(t *testing.T) {
	e := newEnv(t)
	e.sched.Serial = true
	e.rules.MaxCascade = 3
	if _, err := e.det.TransactionEvent(event.CommitTransaction); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sheds int
	e.rules.OnError = func(_ string, err error) {
		mu.Lock()
		defer mu.Unlock()
		if errors.Is(err, ErrCascadeShed) {
			sheds++
		}
	}
	runs := 0
	if _, err := e.rules.Define(Spec{
		Name: "OnCommit", Event: event.CommitTransaction,
		Action: func(*Execution) error {
			if runs++; runs > 10 {
				return errors.New("commit rule not shed")
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := e.txns.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.sched.Drain()
	mu.Lock()
	defer mu.Unlock()
	if runs != 3 || sheds != 1 {
		t.Fatalf("commit rule ran %d times with %d sheds, want 3 runs (one per cascade level) and 1 shed", runs, sheds)
	}
	if e.sched.Pending() != 0 || e.txns.Live() != 0 {
		t.Fatalf("%d tasks pending, %d transactions live after the shed", e.sched.Pending(), e.txns.Live())
	}
}

// TestConditionEventOnShellTriggersNoRule: a condition that raises a
// method event under its own subtransaction makes the shell begin — it
// asks for the id — and the event is still the condition's, masked; the
// action's event under the same id, once the condition returned, fires.
func TestConditionEventOnShellTriggersNoRule(t *testing.T) {
	e := newEnv(t)
	reg := obs.NewRegistry()
	e.det.RegisterMetrics(reg)
	watched := 0
	if _, err := e.rules.Define(Spec{
		Name: "Watcher", Event: "e2",
		Action: func(*Execution) error { watched++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	var wasShell bool
	if _, err := e.rules.Define(Spec{
		Name: "Raiser", Event: "e1",
		Condition: func(x *Execution) bool {
			wasShell = x.Txn.IsShell()
			e.det.SignalMethod("C", "m2", event.End, 1, nil, x.Txn.ID())
			return true
		},
		Action: func(x *Execution) error {
			e.det.SignalMethod("C", "m2", event.End, 1, nil, x.Txn.ID())
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := e.txns.Begin()
	e.sig("e1", tx)
	if !wasShell {
		t.Fatal("the condition's subtransaction had begun before the condition asked for it")
	}
	if drops, _ := reg.Get("sentinel_detector_masked_drops_total"); drops.Value != 1 {
		t.Fatalf("masked_drops = %v, want the condition's one event", drops.Value)
	}
	if watched != 1 {
		t.Fatalf("Watcher fired %d times, want once: for the action's event, not the condition's", watched)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryRunsInAFreshExecution: an attempt aborted by a deadlock is
// retried with a new Execution and subtransaction, so one the first
// attempt handed out still names the subtransaction it ran (and aborted)
// in.
func TestRetryRunsInAFreshExecution(t *testing.T) {
	e := newEnv(t)
	e.rules.RetryMax = 1
	var seen []*Execution
	var txns []*txn.Txn
	if _, err := e.rules.Define(Spec{
		Name: "Flaky", Event: "e1",
		Action: func(x *Execution) error {
			seen, txns = append(seen, x), append(txns, x.Txn)
			if len(seen) == 1 {
				return lockmgr.ErrDeadlock
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := e.txns.Begin()
	e.sig("e1", tx)
	if len(seen) != 2 {
		t.Fatalf("action ran %d times, want the attempt and one retry", len(seen))
	}
	if seen[0] == seen[1] || txns[0] == txns[1] {
		t.Fatal("the retry reused the first attempt's Execution or subtransaction")
	}
	if seen[0].Txn != txns[0] || txns[0].Status() != txn.Aborted || txns[1].Status() != txn.Committed {
		t.Fatalf("first attempt's Execution names %p (%v), want its own aborted subtransaction", seen[0].Txn, seen[0].Txn.Status())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
