package seglog

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// appendRec buffers record i and returns the offset just past it: the
// upTo that makes it durable.
func appendRec(l *Log, i int) (uint64, error) {
	b := BeginFrame(nil)
	b = append(b, payload(i)...)
	EndFrame(b, 0)
	off, err := l.Append(b, 1)
	return off + uint64(len(b)), err
}

func syncConfig(dir string) Config {
	cfg := testConfig(dir, 1<<20)
	cfg.Sync = true
	return cfg
}

// waitUntil polls cond until it holds, failing the test after a generous
// bound.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

type waitResult struct {
	batch int
	err   error
	crash *faults.Crash
}

// goWait runs WaitDurable(upTo) on its own goroutine; an injected crash is
// reported, not propagated.
func goWait(l *Log, upTo uint64) <-chan waitResult {
	ch := make(chan waitResult, 1)
	go func() {
		var res waitResult
		defer func() {
			if r := recover(); r != nil {
				c, ok := faults.AsCrash(r)
				if !ok {
					panic(r)
				}
				res.crash = c
			}
			ch <- res
		}()
		res.batch, res.err = l.WaitDurable(upTo)
	}()
	return ch
}

// result fails the test unless the waiter returns within a generous bound:
// a WaitDurable that never returns is the bug these tests look for.
func result(t *testing.T, ch <-chan waitResult, who string) waitResult {
	t.Helper()
	select {
	case res := <-ch:
		return res
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: WaitDurable never returned", who)
		return waitResult{}
	}
}

// Eight writers appending and waiting concurrently share forces: the log
// issues fewer fsyncs than there are waits, and every forced batch is
// accounted to some forcer.
func TestWaitDurableConcurrentWaiters(t *testing.T) {
	l := mustOpen(t, syncConfig(t.TempDir()))
	defer l.Close()
	_, _, _, fsyncs0 := l.Stats()

	const writers, per = 8, 25
	var wg sync.WaitGroup
	batches := make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				upTo, err := appendRec(l, w*per+i)
				if err != nil {
					t.Error(err)
					return
				}
				batch, err := l.WaitDurable(upTo)
				if err != nil {
					t.Error(err)
					return
				}
				if l.Flushed() < upTo {
					t.Errorf("WaitDurable(%d) returned with the log flushed to %d", upTo, l.Flushed())
					return
				}
				batches[w] += batch
			}
		}(w)
	}
	wg.Wait()
	_, _, _, fsyncs := l.Stats()
	covered := 0
	for _, b := range batches {
		covered += b
	}
	const waits = writers * per
	if n := fsyncs - fsyncs0; n >= waits {
		t.Fatalf("%d fsyncs for %d waits: WaitDurable is not batching", n, waits)
	} else if covered == 0 || covered > waits {
		t.Fatalf("forcers covered %d waiters of %d waits", covered, waits)
	} else {
		t.Logf("%d waits, %d fsyncs (%.2f per wait), %d waiters covered by forces", waits, n, float64(n)/waits, covered)
	}
}

// A lone waiter costs exactly one force, which covers it alone; once
// durable, its records return at once without another.
func TestWaitDurableLoneWaiterOneForce(t *testing.T) {
	l := mustOpen(t, syncConfig(t.TempDir()))
	defer l.Close()
	upTo, err := appendRec(l, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, flushes0, fsyncs0 := l.Stats()
	if batch, err := l.WaitDurable(upTo); err != nil || batch != 1 {
		t.Fatalf("WaitDurable = %d, %v; want a batch of 1", batch, err)
	}
	_, _, flushes, fsyncs := l.Stats()
	if flushes-flushes0 != 1 || fsyncs-fsyncs0 != 1 {
		t.Fatalf("%d flushes and %d fsyncs for one waiter, want 1 and 1", flushes-flushes0, fsyncs-fsyncs0)
	}
	if batch, err := l.WaitDurable(upTo); err != nil || batch != 0 {
		t.Fatalf("WaitDurable of durable records = %d, %v; want 0, nil", batch, err)
	}
	if _, _, f, _ := l.Stats(); f != flushes {
		t.Fatal("WaitDurable of durable records forced the log")
	}
}

// A waiter that arrives while a force is in flight is not covered by it —
// its record was appended after the buffer was detached — and the next
// force covers it.
func TestWaitDurableArrivalDuringForce(t *testing.T) {
	l := mustOpen(t, syncConfig(t.TempDir()))
	defer l.Close()
	// The flush point fires after the detach: the delay holds the first
	// force in flight.
	in := faults.NewInjector(1, faults.Trigger{
		Point: testFaults.Flush, On: 1, Fault: faults.Fault{Delay: 300 * time.Millisecond},
	})
	faults.Arm(in)
	defer faults.Disarm()

	_, _, flushes0, _ := l.Stats()
	upA, err := appendRec(l, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := goWait(l, upA)
	waitUntil(t, "the first force is in flight", func() bool { return in.Hits(testFaults.Flush) == 1 })
	upB, err := appendRec(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := goWait(l, upB)
	waitUntil(t, "the second waiter joins", func() bool { return l.joined.Load() == 1 })
	if flushed := l.Flushed(); flushed >= upA {
		t.Fatalf("the first force completed (flushed %d) before the second waiter joined", flushed)
	}
	ra, rb := result(t, a, "first waiter"), result(t, b, "second waiter")
	if ra.err != nil || ra.batch != 1 || rb.err != nil || rb.batch != 1 {
		t.Fatalf("first waiter %d, %v; second %d, %v; want a force of 1 each", ra.batch, ra.err, rb.batch, rb.err)
	}
	if _, _, f, _ := l.Stats(); f-flushes0 != 2 {
		t.Fatalf("%d flushes, want 2", f-flushes0)
	}
	if l.Flushed() < upB {
		t.Fatal("the second waiter returned before its record was durable")
	}
}

// A force that fails — by error or by injected crash — seals the log, and
// every waiter in its batch wakes with ErrSealed instead of hanging.
func TestWaitDurableFailedForceReleasesWaiters(t *testing.T) {
	boom := errors.New("disk gone")
	for _, tc := range []struct {
		name  string
		fault faults.Fault
	}{
		{"error", faults.Fault{Err: boom}},
		{"crash", faults.Fault{Crash: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := mustOpen(t, syncConfig(t.TempDir()))
			defer l.Close()
			// Holding flushMu parks the forcer between its gather and its
			// force, so every other waiter joins its batch first.
			l.flushMu.Lock()
			upF, err := appendRec(l, 0)
			if err != nil {
				t.Fatal(err)
			}
			forcer := goWait(l, upF)
			waitUntil(t, "a forcer is elected", func() bool {
				l.mu.Lock()
				defer l.mu.Unlock()
				return l.forcing
			})
			const others = 3
			var waiters []<-chan waitResult
			for i := 1; i <= others; i++ {
				up, err := appendRec(l, i)
				if err != nil {
					t.Fatal(err)
				}
				waiters = append(waiters, goWait(l, up))
			}
			waitUntil(t, "every waiter joins", func() bool { return l.joined.Load() == 1+others })
			faults.Arm(faults.NewInjector(1, faults.Trigger{Point: testFaults.Fsync, On: 1, Fault: tc.fault}))
			defer faults.Disarm()
			l.flushMu.Unlock()

			rf := result(t, forcer, "forcer")
			if tc.fault.Crash {
				if rf.crash == nil {
					t.Fatalf("forcer returned %d, %v; want the injected crash", rf.batch, rf.err)
				}
			} else if !errors.Is(rf.err, boom) {
				t.Fatalf("forcer error %v, want the injected one", rf.err)
			}
			for i, ch := range waiters {
				if r := result(t, ch, "waiter"); !errors.Is(r.err, ErrSealed) || r.crash != nil {
					t.Fatalf("waiter %d: %d, %v, crash %v; want ErrSealed", i, r.batch, r.err, r.crash)
				}
			}
			if _, err := l.WaitDurable(upF); !errors.Is(err, ErrSealed) {
				t.Fatalf("WaitDurable after the failed force: %v, want ErrSealed", err)
			}
		})
	}
}

// A crash verdict at the flush or fsync point seals the log before the
// crash goes on: the bytes the force detached are in an unknown state, so
// no later record may be appended — or written — behind them, and a reopen
// finds every record made durable before the crash (plus, after a crash at
// the fsync, the record the file already holds).
func TestCrashInForceSealsLog(t *testing.T) {
	for _, point := range []faults.Point{testFaults.Flush, testFaults.Fsync} {
		t.Run(string(point), func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, syncConfig(dir))
			offs := appendFlush(t, l, 0, 3)
			end, err := appendRec(l, 3)
			if err != nil {
				t.Fatal(err)
			}
			if point == testFaults.Fsync {
				offs = append(offs, end-uint64(FrameHeaderLen+len(payload(3))))
			}
			faults.Arm(faults.NewInjector(1, faults.Trigger{Point: point, On: 1, Fault: faults.Fault{Crash: true}}))
			crashed := func() (crashed bool) {
				defer func() {
					if r := recover(); r != nil {
						_, crashed = faults.AsCrash(r)
					}
				}()
				_ = l.Flush(^uint64(0))
				return false
			}()
			faults.Disarm()
			if !crashed {
				t.Fatal("the armed crash did not fire")
			}
			var c *faults.Crash
			if err := l.Sealed(); !errors.As(err, &c) {
				t.Fatalf("log sealed with %v, want the crash", err)
			}
			if _, err := appendRec(l, 4); !errors.Is(err, ErrSealed) {
				t.Fatalf("append after the crash: %v, want ErrSealed", err)
			}
			// The crashed log is abandoned un-closed, as a killed process
			// leaves it.
			l = mustOpen(t, syncConfig(dir))
			defer l.Close()
			checkRecords(t, l, offs)
		})
	}
}
