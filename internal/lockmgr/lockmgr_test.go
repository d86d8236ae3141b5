package lockmgr

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatalf("mode strings: %v %v", Shared, Exclusive)
	}
	if got := Mode(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown mode: %q", got)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := New()
	if err := m.Lock(1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if got := m.Holders("r"); len(got) != 2 {
		t.Fatalf("Holders=%v", got)
	}
}

func TestExclusiveBlocksAndPromotes(t *testing.T) {
	m := New()
	if err := m.Lock(1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- m.Lock(2, "r", Exclusive) }()
	select {
	case err := <-acquired:
		t.Fatalf("second X lock granted while first held: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if err := m.Unlock(1, "r"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never promoted after release")
	}
}

func TestUpgradeSharedToExclusive(t *testing.T) {
	m := New()
	if err := m.Lock(1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, "r", Exclusive); err != nil {
		t.Fatalf("sole-holder upgrade failed: %v", err)
	}
	if got := m.Holders("r")[1]; got != Exclusive {
		t.Fatalf("mode after upgrade=%v", got)
	}
}

func TestReacquireDoesNotDowngrade(t *testing.T) {
	m := New()
	if err := m.Lock(1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if got := m.Holders("r")[1]; got != Exclusive {
		t.Fatalf("mode downgraded to %v", got)
	}
}

// TestIntentExclusive: intent holders share the resource with each other
// but not with Shared or Exclusive holders, and an intent holder asking
// for Shared asks for — and, once alone, holds — Exclusive.
func TestIntentExclusive(t *testing.T) {
	const wait = 30 * time.Millisecond
	m := New()
	if IntentExclusive.String() != "IX" {
		t.Fatalf("mode string %v", IntentExclusive)
	}
	for _, owner := range []TxnID{1, 2} {
		if err := m.LockTimeout(owner, "c", IntentExclusive, wait); err != nil {
			t.Fatalf("intent holder %d: %v", owner, err)
		}
	}
	for _, mode := range []Mode{Shared, Exclusive} {
		if err := m.LockTimeout(3, "c", mode, wait); !errors.Is(err, ErrTimeout) {
			t.Fatalf("%v beside intent holders: %v, want a timeout", mode, err)
		}
	}
	if err := m.LockTimeout(1, "c", Shared, wait); !errors.Is(err, ErrTimeout) {
		t.Fatalf("IX→S upgrade beside another intent holder: %v, want a timeout", err)
	}
	m.ReleaseAll(2)
	if err := m.LockTimeout(1, "c", Shared, wait); err != nil {
		t.Fatal(err)
	}
	if got := m.Holders("c")[1]; got != Exclusive {
		t.Fatalf("IX joined with S holds %v, want X", got)
	}
	m.ReleaseAll(1)
	if err := m.Lock(4, "c", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.LockTimeout(5, "c", IntentExclusive, wait); !errors.Is(err, ErrTimeout) {
		t.Fatalf("IX beside a Shared holder: %v, want a timeout", err)
	}
}

func TestChildMayLockParentsResource(t *testing.T) {
	m := New()
	if err := m.Lock(1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	m.SetParent(2, 1)
	// Moss rule: conflicting holder is an ancestor, so the child proceeds.
	if err := m.LockTimeout(2, "r", Exclusive, 100*time.Millisecond); err != nil {
		t.Fatalf("child blocked on ancestor's lock: %v", err)
	}
	// An unrelated transaction still blocks.
	if err := m.LockTimeout(3, "r", Exclusive, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unrelated txn should time out, got %v", err)
	}
}

func TestGrandchildMayLockAncestorsResource(t *testing.T) {
	m := New()
	m.SetParent(2, 1)
	m.SetParent(3, 2)
	if err := m.Lock(1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.LockTimeout(3, "r", Shared, 100*time.Millisecond); err != nil {
		t.Fatalf("grandchild blocked: %v", err)
	}
}

func TestInheritOnSubtransactionCommit(t *testing.T) {
	m := New()
	m.SetParent(2, 1)
	if err := m.Lock(2, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	m.Inherit(2, 1)
	holders := m.Holders("r")
	if holders[1] != Exclusive {
		t.Fatalf("parent did not inherit: %v", holders)
	}
	if _, still := holders[2]; still {
		t.Fatalf("child still holds after inherit: %v", holders)
	}
	// Inherit keeps the strongest mode when the parent already holds one:
	// the parent holds S, the child upgrades to X past its ancestor's
	// lock (Moss rule), and the inherited X must not downgrade to S.
	m.SetParent(3, 1)
	if err := m.Lock(1, "s", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.LockTimeout(3, "s", Exclusive, 100*time.Millisecond); err != nil {
		t.Fatal(err) // only conflicting holder is an ancestor
	}
	m.Inherit(3, 1)
	if m.Holders("s")[1] != Exclusive {
		t.Fatalf("inherit downgraded parent: %v", m.Holders("s"))
	}
}

func TestParentBlocksOnChildLock(t *testing.T) {
	// The ancestor rule is one-directional: a parent requesting a lock
	// held by its (still active) child must wait — in Moss's model the
	// parent never runs concurrently with its children, so this request
	// only resolves when the child finishes.
	m := New()
	m.SetParent(2, 1)
	if err := m.Lock(2, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.LockTimeout(1, "r", Exclusive, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("parent acquired child's lock: %v", err)
	}
	m.Inherit(2, 1) // child commits: parent inherits and may proceed
	if err := m.LockTimeout(1, "r", Exclusive, 100*time.Millisecond); err != nil {
		t.Fatalf("parent blocked after inherit: %v", err)
	}
}

func TestReleaseAllUnblocksWaiters(t *testing.T) {
	m := New()
	for _, r := range []string{"a", "b", "c"} {
		if err := m.Lock(1, r, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	var done sync.WaitGroup
	errs := make(chan error, 3)
	for _, r := range []string{"a", "b", "c"} {
		done.Add(1)
		go func(r string) {
			defer done.Done()
			errs <- m.Lock(2, r, Shared)
		}(r)
	}
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(1)
	done.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New()
	if err := m.Lock(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Lock(1, "b", Exclusive) }() // 1 waits for 2
	time.Sleep(20 * time.Millisecond)
	err := m.Lock(2, "a", Exclusive) // closes the cycle
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	// Victim's abort releases its locks; the first waiter proceeds.
	m.ReleaseAll(2)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("survivor never granted after victim release")
	}
}

// TestDeadlockThroughSubtransactions: two top-level transactions each hold
// a lock the other's subtransaction wants. No lock wait of a top-level
// transaction closes the cycle — each waits for its subtransaction to
// finish — so the detector must follow parent→child edges.
func TestDeadlockThroughSubtransactions(t *testing.T) {
	m := New()
	m.DefaultTimeout = 5 * time.Second
	m.SetParent(11, 1)
	m.SetParent(21, 2)
	if err := m.Lock(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Lock(11, "b", Exclusive) }() // 11 waits for 2, 2 for 21
	for m.Waiting("b") == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := m.Lock(21, "a", Exclusive); !errors.Is(err, ErrDeadlock) { // 21 waits for 1, 1 for 11
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	m.ReleaseAll(21)
	m.ReleaseAll(2)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

// TestQueuedAncestorIsNoObstacle: a subtransaction queued behind its own
// ancestor's request does not wait for that ancestor (it is granted right
// after it), so no cycle runs through the ancestor's wait for it.
func TestQueuedAncestorIsNoObstacle(t *testing.T) {
	m := New()
	m.DefaultTimeout = 5 * time.Second
	m.SetParent(11, 1)
	if err := m.Lock(3, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	parent := make(chan error, 1)
	go func() { parent <- m.Lock(1, "r", Exclusive) }()
	for m.Waiting("r") == 0 {
		time.Sleep(time.Millisecond)
	}
	child := make(chan error, 1)
	go func() { child <- m.Lock(11, "r", Exclusive) }()
	for m.Waiting("r") < 2 && len(child) == 0 {
		time.Sleep(time.Millisecond)
	}
	m.ReleaseAll(3)
	for _, ch := range []chan error{parent, child} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnlockErrors(t *testing.T) {
	m := New()
	if err := m.Unlock(1, "nope"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("Unlock unknown resource: %v", err)
	}
	if err := m.Lock(1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlock(2, "r"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("Unlock by non-holder: %v", err)
	}
}

func TestTimeout(t *testing.T) {
	m := New()
	if err := m.Lock(1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.LockTimeout(2, "r", Shared, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
	if m.Waiting("r") != 0 {
		t.Fatalf("timed-out waiter left in queue: %d", m.Waiting("r"))
	}
}

func TestFIFOFairness(t *testing.T) {
	// A stream of shared lockers must not starve a queued exclusive one.
	m := New()
	if err := m.Lock(1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	xGranted := make(chan struct{})
	go func() {
		if err := m.Lock(2, "r", Exclusive); err == nil {
			close(xGranted)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	// A new shared request queues behind the exclusive one.
	sErr := make(chan error, 1)
	go func() { sErr <- m.Lock(3, "r", Shared) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-sErr:
		t.Fatalf("late shared request jumped the queue: %v", err)
	default:
	}
	if err := m.Unlock(1, "r"); err != nil {
		t.Fatal(err)
	}
	<-xGranted
	m.ReleaseAll(2)
	if err := <-sErr; err != nil {
		t.Fatal(err)
	}
}

// Property: under a random concurrent workload, no two unrelated
// transactions ever hold incompatible locks on the same resource.
func TestQuickNoIncompatibleHolders(t *testing.T) {
	f := func(seed []uint8) bool {
		m := New()
		m.DefaultTimeout = 50 * time.Millisecond
		var violation atomic.Bool
		var wg sync.WaitGroup
		resources := []string{"r0", "r1", "r2"}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				owner := TxnID(g + 1)
				for i := g; i < len(seed); i += 4 {
					r := resources[int(seed[i])%len(resources)]
					mode := Shared
					if seed[i]%2 == 0 {
						mode = Exclusive
					}
					if err := m.Lock(owner, r, mode); err != nil {
						continue
					}
					holders := m.Holders(r)
					x, total := 0, 0
					for _, hm := range holders {
						total++
						if hm == Exclusive {
							x++
						}
					}
					if x > 1 || (x == 1 && total > 1) {
						violation.Store(true)
					}
					_ = m.Unlock(owner, r)
				}
				m.ReleaseAll(owner)
			}(g)
		}
		wg.Wait()
		return !violation.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStress(t *testing.T) {
	m := New()
	m.DefaultTimeout = 200 * time.Millisecond
	var wg sync.WaitGroup
	var granted atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := TxnID(g + 1)
			for i := 0; i < 200; i++ {
				r := fmt.Sprintf("res-%d", i%5)
				mode := Shared
				if (i+g)%3 == 0 {
					mode = Exclusive
				}
				if err := m.Lock(owner, r, mode); err == nil {
					granted.Add(1)
					_ = m.Unlock(owner, r)
				}
			}
		}(g)
	}
	wg.Wait()
	if granted.Load() == 0 {
		t.Fatal("no locks ever granted under stress")
	}
}

func TestChildBypassesQueueWhenAncestorHolds(t *testing.T) {
	// Regression for a family deadlock: parent holds the lock, a stranger
	// queues, then the parent's subtransaction requests it. The stranger
	// waits for the parent, the parent (in the application) waits for its
	// child — so the child must bypass the FIFO queue, not join it.
	m := New()
	m.SetParent(2, 1)
	if err := m.Lock(1, "catalog", Exclusive); err != nil {
		t.Fatal(err)
	}
	strangerDone := make(chan error, 1)
	go func() { strangerDone <- m.Lock(3, "catalog", Exclusive) }()
	// Give the stranger time to queue.
	for i := 0; i < 100 && m.Waiting("catalog") == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if m.Waiting("catalog") == 0 {
		t.Fatal("stranger never queued")
	}
	if err := m.LockTimeout(2, "catalog", Exclusive, 500*time.Millisecond); err != nil {
		t.Fatalf("child deadlocked behind stranger: %v", err)
	}
	// Family finishes: child inherits to parent, parent releases, the
	// stranger finally gets the lock.
	m.Inherit(2, 1)
	m.ReleaseAll(1)
	select {
	case err := <-strangerDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stranger never granted after family release")
	}
}
