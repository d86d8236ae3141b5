package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// Func adapts a function to Job.
type Func func(t *Task)

// Run calls f.
func (f Func) Run(t *Task) { f(t) }

func TestPathOrdering(t *testing.T) {
	cases := []struct {
		a, b Path
		less bool // a.Less(b)
	}{
		{Path{1}, Path{2}, true},
		{Path{2}, Path{1}, false},
		{Path{5}, Path{5}, false},
		{Path{5}, Path{5, 1}, true},  // deeper outranks on equal prefix
		{Path{5, 1}, Path{5}, false}, //
		{Path{5, 9}, Path{6}, true},  // first element dominates
		{Path{6}, Path{5, 9}, false},
		{nil, Path{0}, true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v)=%v want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Path{1, 2}).Equal(Path{1, 2}) || (Path{1}).Equal(Path{1, 2}) || (Path{1}).Equal(Path{2}) {
		t.Error("Equal broken")
	}
	if got := (Path{3}).Child(7); !got.Equal(Path{3, 7}) {
		t.Errorf("Child=%v", got)
	}
}

func TestSerialPriorityOrder(t *testing.T) {
	s := New(4)
	s.Serial = true
	var order []string
	add := func(name string, prio int) {
		s.Enqueue(&Task{Rule: name, Priority: Path{prio}, Job: Func(func(*Task) { order = append(order, name) })})
	}
	add("low", 1)
	add("high", 10)
	add("mid", 5)
	add("high2", 10)
	s.Drain()
	want := []string{"high", "high2", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v want %v", order, want)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending=%d", s.Pending())
	}
}

func TestConcurrentWithinClass(t *testing.T) {
	s := New(8)
	var inFlight, maxInFlight atomic.Int64
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		s.Enqueue(&Task{Rule: "r", Priority: Path{5}, Job: Func(func(*Task) {
			cur := inFlight.Add(1)
			mu.Lock()
			if cur > maxInFlight.Load() {
				maxInFlight.Store(cur)
			}
			mu.Unlock()
			time.Sleep(10 * time.Millisecond)
			inFlight.Add(-1)
		})})
	}
	s.Drain()
	if maxInFlight.Load() < 2 {
		t.Fatalf("same-class tasks never ran concurrently (max=%d)", maxInFlight.Load())
	}
	if s.tasksRun() != 8 {
		t.Fatalf("ran %d tasks, want 8", s.tasksRun())
	}
}

func TestWorkerBoundRespected(t *testing.T) {
	s := New(2)
	var inFlight, maxInFlight atomic.Int64
	for i := 0; i < 10; i++ {
		s.Enqueue(&Task{Rule: "r", Priority: Path{1}, Job: Func(func(*Task) {
			cur := inFlight.Add(1)
			for {
				m := maxInFlight.Load()
				if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
		})})
	}
	s.Drain()
	if maxInFlight.Load() > 2 {
		t.Fatalf("worker bound exceeded: %d", maxInFlight.Load())
	}
}

func TestDepthFirstNestedExecution(t *testing.T) {
	// A parent rule triggers a child; the child must run before the
	// parent's lower-priority sibling.
	s := New(1)
	s.Serial = true
	var order []string
	s.Enqueue(&Task{Rule: "parent", Priority: Path{5}, Job: Func(func(t *Task) {
		order = append(order, "parent")
		s.Enqueue(&Task{Rule: "child", Priority: t.Priority.Child(1), Job: Func(func(*Task) {
			order = append(order, "child")
		})})
	})})
	s.Enqueue(&Task{Rule: "sibling", Priority: Path{3}, Job: Func(func(*Task) {
		order = append(order, "sibling")
	})})
	s.Drain()
	want := []string{"parent", "child", "sibling"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v want %v", order, want)
		}
	}
}

func TestNestedDoesNotStarveEqualClassSiblings(t *testing.T) {
	// Child of the first high task runs before the second high task's
	// completion is required — but same-class siblings still run before
	// lower classes.
	s := New(1)
	s.Serial = true
	var order []string
	for _, name := range []string{"h1", "h2"} {
		name := name
		s.Enqueue(&Task{Rule: name, Priority: Path{9}, Job: Func(func(t *Task) {
			order = append(order, name)
			s.Enqueue(&Task{Rule: name + ".child", Priority: t.Priority.Child(0), Job: Func(func(*Task) {
				order = append(order, name+".child")
			})})
		})})
	}
	s.Enqueue(&Task{Rule: "low", Priority: Path{1}, Job: Func(func(*Task) { order = append(order, "low") })})
	s.Drain()
	want := []string{"h1", "h1.child", "h2", "h2.child", "low"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order=%v want %v", order, want)
		}
	}
}

func TestDeepNesting(t *testing.T) {
	s := New(1)
	s.Serial = true
	var depthReached int
	var spawn func(t *Task, depth int)
	spawn = func(t *Task, depth int) {
		if depth > depthReached {
			depthReached = depth
		}
		if depth >= 10 {
			return
		}
		s.Enqueue(&Task{Rule: "r", Priority: t.Priority.Child(0), Job: Func(func(ct *Task) {
			spawn(ct, depth+1)
		})})
	}
	s.Enqueue(&Task{Rule: "root", Priority: Path{1}, Job: Func(func(t *Task) { spawn(t, 1) })})
	s.Drain()
	if depthReached != 10 {
		t.Fatalf("depth=%d want 10", depthReached)
	}
}

func TestDrainOnEmptyQueue(t *testing.T) {
	s := New(4)
	s.Drain() // must not hang or panic
}

// Property: serial drain always executes in non-increasing effective
// priority order relative to the tasks present at enqueue time (no child
// spawning here).
func TestQuickSerialOrder(t *testing.T) {
	f := func(prios []uint8) bool {
		s := New(1)
		s.Serial = true
		var ran []int
		for _, p := range prios {
			p := int(p % 10)
			s.Enqueue(&Task{Rule: "r", Priority: Path{p}, Job: Func(func(*Task) { ran = append(ran, p) })})
		}
		s.Drain()
		for i := 1; i < len(ran); i++ {
			if ran[i] > ran[i-1] {
				return false
			}
		}
		return len(ran) == len(prios)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainFamilyRunsOnlyItsFamily: a family's scheduling point runs that
// family's tasks, nested ones included, and leaves every other family's
// queued; Drain still runs everything.
func TestDrainFamilyRunsOnlyItsFamily(t *testing.T) {
	s := New(4)
	defer s.Close()
	var mu sync.Mutex
	ran := map[string]bool{}
	mark := func(name string) {
		mu.Lock()
		ran[name] = true
		mu.Unlock()
	}
	for _, fam := range []uint64{1, 2} {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("f%d.%d", fam, i)
			s.Enqueue(&Task{Rule: name, Priority: Path{i % 2}, Family: fam, Job: Func(func(t *Task) {
				mark(name)
				s.Enqueue(&Task{Rule: name + ".child", Priority: t.Priority.Child(0), Family: t.Family,
					Job: Func(func(*Task) { mark(name + ".child") })})
			})})
		}
	}
	s.DrainFamily(1)
	for name := range ran {
		if name[1] != '1' {
			t.Fatalf("family 1's scheduling point ran %s", name)
		}
	}
	if len(ran) != 6 || s.Pending() != 3 {
		t.Fatalf("ran %d tasks, %d pending; want family 1's 6 run and family 2's 3 queued", len(ran), s.Pending())
	}
	s.Drain()
	if len(ran) != 12 || s.Pending() != 0 {
		t.Fatalf("after Drain: ran %d, %d pending", len(ran), s.Pending())
	}
}

// TestDrainFamilyRunsUnownedTasks: a task of no family (triggered outside
// any transaction) runs at the next scheduling point of any family.
func TestDrainFamilyRunsUnownedTasks(t *testing.T) {
	s := New(1)
	defer s.Close()
	var ran []string
	for _, fam := range []uint64{0, 2} {
		name := fmt.Sprintf("f%d", fam)
		s.Enqueue(&Task{Rule: name, Priority: Path{0}, Family: fam, Job: Func(func(*Task) { ran = append(ran, name) })})
	}
	s.DrainFamily(1)
	if len(ran) != 1 || ran[0] != "f0" || s.Pending() != 1 {
		t.Fatalf("family 1's scheduling point ran %v with %d pending; want [f0] and family 2's task queued", ran, s.Pending())
	}
}
