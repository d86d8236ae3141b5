package detector

import (
	"container/heap"

	"repro/internal/event"
)

// The temporal operators (PLUS, P, P*) run against the detector's virtual
// clock: occurrences are stamped with the clock reading at signal time and
// timer callbacks fire when AdvanceTime passes their due time. Tests and
// batch replay drive the clock explicitly; a real-time driver goroutine
// can pump it for online applications. Temporal windows use single-window
// (most recent initiator) semantics in every context; the parameter
// context still governs how the emitted composite propagates upward.

// timerEntry is one scheduled callback in the detector's timer heap.
type timerEntry struct {
	due  uint64
	seq  uint64 // tie-break so ordering is deterministic
	fire func(now uint64)
	dead bool
}

// timerHeap is a min-heap on (due, seq).
type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timerEntry)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// push inserts a timer entry maintaining the heap invariant.
func (h *timerHeap) push(e *timerEntry) { heap.Push(h, e) }

// ---------------------------------------------------------------------------
// PLUS
// ---------------------------------------------------------------------------

// plusNode detects E1 + t: a temporal event t time units after each E1.
type plusNode struct {
	opCore
	delta uint64
}

func (n *plusNode) addContext(ctx Context) {
	n.bumpContext(ctx, 1)
	n.addContextKids(ctx)
}

func (n *plusNode) removeContext(ctx Context) {
	n.bumpContext(ctx, -1)
	n.removeContextKids(ctx)
}

func (n *plusNode) subscribe(sub Subscriber, ctx Context) func() {
	return subscribeOp(n, &n.nodeCore, sub, ctx)
}

func (n *plusNode) flushTxn(txnID uint64) { n.d.cancelTimers(n, txnID) }
func (n *plusNode) flushAll()             { n.d.cancelTimers(n, 0) }

// occupancy is zero: PLUS stores no occurrences, only timers (which the
// timer heap owns and cancelTimers reaps).
func (n *plusNode) occupancy() int { return 0 }

func (n *plusNode) receive(occ *event.Occurrence, side int, ctx Context) {
	init := occ
	n.d.schedule(n, init.Txn, init.Time+n.delta, func(now uint64) {
		tick := n.d.temporalOccurrence(n.name, now, init.Txn)
		if n.activeIn(ctx) {
			n.emit(compose(n.name, init, tick), ctx)
		}
	})
}

// ---------------------------------------------------------------------------
// P (periodic)
// ---------------------------------------------------------------------------

// pState is the open periodic window: the initiator and the cancellation
// flag shared with outstanding timers.
type pState struct {
	init   *event.Occurrence
	ticks  occList // P* only
	cancel *bool
}

// pNode detects P(E1, t, E3): a temporal event every t units after E1
// until E3 closes the window. Each tick emits one composite.
type pNode struct {
	opCore
	period uint64
	star   bool // P*: accumulate ticks and emit once at E3
	st     [numContexts]*pState
}

func (n *pNode) addContext(ctx Context) {
	n.bumpContext(ctx, 1)
	n.addContextKids(ctx)
}

func (n *pNode) removeContext(ctx Context) {
	n.bumpContext(ctx, -1)
	if !n.activeIn(ctx) {
		n.closeWindow(ctx)
	}
	n.removeContextKids(ctx)
}

func (n *pNode) subscribe(sub Subscriber, ctx Context) func() {
	return subscribeOp(n, &n.nodeCore, sub, ctx)
}

func (n *pNode) closeWindow(ctx Context) {
	if st := n.st[ctx]; st != nil {
		*st.cancel = true
		n.st[ctx] = nil
	}
}

func (n *pNode) flushTxn(txnID uint64) {
	for ctx := range n.st {
		if st := n.st[ctx]; st != nil {
			if occFromTxn(st.init, txnID) {
				n.closeWindow(Context(ctx))
			} else {
				st.ticks = st.ticks.dropTxn(txnID)
			}
		}
	}
}

func (n *pNode) flushAll() {
	for ctx := range n.st {
		n.closeWindow(Context(ctx))
	}
}

func (n *pNode) occupancy() int {
	total := 0
	for ctx := range n.st {
		if st := n.st[ctx]; st != nil {
			total += 1 + len(st.ticks) // the open initiator plus P* ticks
		}
	}
	return total
}

func (n *pNode) receive(occ *event.Occurrence, side int, ctx Context) {
	switch side {
	case 0: // (re)open the window; a newer initiator replaces the old one
		n.closeWindow(ctx)
		cancel := false
		st := &pState{init: occ, cancel: &cancel}
		n.st[ctx] = st
		n.scheduleTick(st, ctx, occ.Time+n.period)
	case 2: // close
		st := n.st[ctx]
		if st == nil {
			return
		}
		if n.star && len(st.ticks) > 0 {
			n.emit(composeSpan(n.name, st.init, st.ticks, occ), ctx)
		}
		n.closeWindow(ctx)
	}
}

func (n *pNode) scheduleTick(st *pState, ctx Context, due uint64) {
	n.d.schedule(n, st.init.Txn, due, func(now uint64) {
		if *st.cancel || !n.activeIn(ctx) {
			return
		}
		tick := n.d.temporalOccurrence(n.name, now, st.init.Txn)
		if n.star {
			st.ticks = append(st.ticks, tick)
		} else {
			n.emit(compose(n.name, st.init, tick), ctx)
		}
		n.scheduleTick(st, ctx, now+n.period)
	})
}
