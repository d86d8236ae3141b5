package detector

import (
	"math/bits"
	"slices"

	"repro/internal/event"
)

// aperWindow holds the unclosed initiators of an aperiodic expression per
// context, in arrival (Seq) order. The slices keep their backing arrays
// across windows: nothing emitted ever aliases them.
type aperWindow struct {
	open [numContexts]occList
}

// add records an initiator: RECENT keeps only the latest, the other
// contexts keep them all.
func (w *aperWindow) add(occ *event.Occurrence, ctx Context) {
	if ctx == Recent {
		w.open[ctx] = append(w.open[ctx][:0], occ)
	} else {
		w.open[ctx] = append(w.open[ctx], occ)
	}
}

func (w *aperWindow) clear(ctx Context) { w.open[ctx] = w.open[ctx].reset() }

func (w *aperWindow) flushTxn(txnID uint64) {
	for c := range w.open {
		w.open[c] = w.open[c].dropTxn(txnID)
	}
}

func (w *aperWindow) flushAll() { *w = aperWindow{} }

func (w *aperWindow) occupancy() int {
	total := 0
	for c := range w.open {
		total += len(w.open[c])
	}
	return total
}

// aNode detects A(E1, E2, E3): each occurrence of E2 inside the half-open
// interval started by E1 and closed by E3 is an occurrence of the
// aperiodic event. This is the signalling variant; see aStarNode for the
// cumulative variant the deferred-rule rewrite uses.
type aNode struct {
	opCore
	aperWindow
}

func (n *aNode) addContext(ctx Context) {
	n.bumpContext(ctx, 1)
	n.addContextKids(ctx)
}

func (n *aNode) removeContext(ctx Context) {
	n.bumpContext(ctx, -1)
	if !n.activeIn(ctx) {
		n.open[ctx] = nil
	}
	n.removeContextKids(ctx)
}

func (n *aNode) subscribe(sub Subscriber, ctx Context) func() {
	return subscribeOp(n, &n.nodeCore, sub, ctx)
}

func (n *aNode) receive(occ *event.Occurrence, side int, ctx Context) {
	open := n.open[ctx]
	switch side {
	case 0: // window opens
		n.add(occ, ctx)
	case 1: // monitored event inside the window
		if len(open) == 0 {
			return
		}
		switch ctx {
		case Recent:
			n.emit(compose(n.name, open[len(open)-1], occ), ctx)
		case Chronicle:
			n.emit(compose(n.name, open[0], occ), ctx)
		case Continuous:
			for _, o := range open {
				n.emit(compose(n.name, o, occ), ctx)
			}
		case Cumulative:
			n.emit(composeMerged(n.name, occ, open), ctx)
		}
	case 2: // window closes; nothing is emitted by plain A
		rest := open[:0]
		for _, o := range open {
			if o.Seq >= occ.Seq {
				rest = append(rest, o)
			}
		}
		clear(open[len(rest):])
		n.open[ctx] = rest
	}
}

// aStarNode detects A*(E1, E2, E3): all occurrences of E2 inside the
// window are accumulated and a single composite is emitted when E3 closes
// it — provided at least one E2 occurred. The Sentinel pre-processor
// rewrites a deferred rule on event E into
// A*(beginTransaction, E, preCommitTransaction), which is why a deferred
// rule runs exactly once per transaction no matter how often E triggered.
//
// The window of initiators is the node's own — unless E1 and E3 are two
// transaction events, as in that rewrite: every such node over one pair
// would hold the same initiators, so the pair's txnWindow holds them once
// and the node attaches to E2 alone (DESIGN.md §12).
type aStarNode struct {
	opCore
	win    *aperWindow          // its own, or &shared.aperWindow
	shared *txnWindow           // nil when the window is the node's own
	accum  [numContexts]occList // E2 occurrences since the window opened
	// since: clock reading at which the node last became active in each
	// context (or was flushed); older initiators of a shared window
	// opened no window of this node.
	since [numContexts]uint64
	ord   uint64 // definition order among shared's members
	armed bool   // listed in shared.armed
}

func (n *aStarNode) addContext(ctx Context) {
	if !n.activeIn(ctx) {
		n.since[ctx] = n.d.clock.Now()
	}
	n.bumpContext(ctx, 1)
	n.addContextKids(ctx)
	if n.shared != nil {
		n.shared.addContext(ctx)
	}
}

func (n *aStarNode) removeContext(ctx Context) {
	n.bumpContext(ctx, -1)
	if !n.activeIn(ctx) {
		n.accum[ctx] = nil
		if n.shared == nil {
			n.win.open[ctx] = nil
		}
	}
	n.removeContextKids(ctx)
	if n.shared != nil {
		n.shared.removeContext(ctx)
	}
}

func (n *aStarNode) subscribe(sub Subscriber, ctx Context) func() {
	return subscribeOp(n, &n.nodeCore, sub, ctx)
}

func (n *aStarNode) flushTxn(txnID uint64) {
	for c := range n.accum {
		n.accum[c] = n.accum[c].dropTxn(txnID)
	}
	if n.shared == nil {
		n.win.flushTxn(txnID)
	}
}

func (n *aStarNode) flushAll() {
	now := n.d.clock.Now()
	for c := range n.accum {
		n.accum[c] = nil
		n.since[c] = now // whatever a shared window holds is no longer this node's
	}
	if n.shared == nil {
		n.win.flushAll()
	}
}

func (n *aStarNode) occupancy() int {
	total := 0
	for c := range n.accum {
		total += len(n.accum[c])
	}
	if n.shared == nil {
		total += n.win.occupancy()
	}
	return total
}

// visible returns the window's initiators that opened after the node
// became active in ctx — all of them, for a window of the node's own.
func (n *aStarNode) visible(ctx Context) occList {
	open := n.win.open[ctx]
	i := len(open)
	for i > 0 && open[i-1].Seq > n.since[ctx] {
		i--
	}
	return open[i:]
}

func (n *aStarNode) receive(occ *event.Occurrence, side int, ctx Context) {
	switch side {
	case 0:
		n.win.add(occ, ctx)
	case 1:
		if len(n.visible(ctx)) == 0 {
			return
		}
		n.accum[ctx] = append(n.accum[ctx], occ)
		if n.shared != nil && !n.armed {
			n.shared.arm(n)
		}
	case 2:
		n.close(occ, ctx)
		n.win.clear(ctx)
	}
}

// close ends the node's window in ctx at terminator occ: one composite
// per the context's pairing if the window was open and anything
// accumulated, silence otherwise.
func (n *aStarNode) close(occ *event.Occurrence, ctx Context) {
	n.emitWindow(occ, ctx, n.visible(ctx), n.accum[ctx])
	n.accum[ctx] = n.accum[ctx].reset()
}

// closeFamily is close for a window keyed by transaction family, at the
// preCommit occ of fam's root: it pairs that transaction's own begin with
// the accumulated occurrences of the family — and those signalled outside
// every transaction — and leaves other families' accumulations for their
// own preCommit.
func (n *aStarNode) closeFamily(occ *event.Occurrence, ctx Context, fam []uint64) {
	accum := n.accum[ctx]
	mine := accum
	if !allOfFamily(accum, fam) { // interleaved families: split off this one's
		mine = nil
		rest := accum[:0]
		for _, o := range accum {
			if ofFamily(o, fam) {
				mine = append(mine, o)
			} else {
				rest = append(rest, o)
			}
		}
		clear(accum[len(rest):])
		n.accum[ctx] = rest
	}
	if len(mine) > 0 {
		// The transaction's own initiator: it begins once, so at most one.
		vis := n.visible(ctx)
		i := slices.IndexFunc(vis, func(o *event.Occurrence) bool { return o.Txn == occ.Txn })
		if i >= 0 {
			n.emitWindow(occ, ctx, vis[i:i+1], mine)
		}
	}
	if len(mine) == len(accum) {
		n.accum[ctx] = accum.reset()
	}
}

// allOfFamily reports whether every occurrence of l belongs to the family.
func allOfFamily(l occList, fam []uint64) bool {
	for _, o := range l {
		if !ofFamily(o, fam) {
			return false
		}
	}
	return true
}

// ofFamily reports whether o belongs to the family with the (ascending)
// ids fam: a leaf signalled under one of them or outside every transaction
// (which belongs to whichever window closes first, as it did before
// windows were keyed), a composite with such a leaf.
func ofFamily(o *event.Occurrence, fam []uint64) bool {
	if len(o.Constituents) == 0 {
		_, in := slices.BinarySearch(fam, o.Txn)
		return in || o.Txn == 0
	}
	for _, c := range o.Constituents {
		if ofFamily(c, fam) {
			return true
		}
	}
	return false
}

// emitWindow emits the composites of one closed window: initiators open,
// accumulation accum, terminator occ, paired per the context.
func (n *aStarNode) emitWindow(occ *event.Occurrence, ctx Context, open, accum occList) {
	if len(open) > 0 && len(accum) > 0 {
		switch ctx {
		case Recent:
			n.emit(composeSpan(n.name, open[len(open)-1], accum, occ), ctx)
		case Chronicle:
			n.emit(composeSpan(n.name, open[0], accum, occ), ctx)
		case Continuous:
			for _, o := range open {
				n.emit(composeSpan(n.name, o, accum, occ), ctx)
			}
		case Cumulative:
			n.emit(composeMerged(n.name, occ, open, accum), ctx)
		}
	}
}

// txnWindow is the window shared by every A*(S, E, T) over one pair of
// distinct transaction events (its members): an unnamed operator node
// attached to S and T in the members' stead. S opens it once, a member
// reads it when its E occurs and enrols as armed on the first occurrence
// it accumulates, T closes the armed members — the only ones that could
// emit — and then the window. A member nobody signalled is never visited.
//
// When the detector knows transaction families (NewWithFamilies) the
// window is keyed by them: every open transaction's S stays in it, and T
// of one transaction closes that transaction's window only — its own S,
// its family's accumulations — leaving interleaved transactions' windows
// open and their members armed. Without it every T closes everything, the
// single-transaction-at-a-time reading of the paper, exactly as an A* over
// any other events does with its own window.
type txnWindow struct {
	nodeCore
	aperWindow
	members int          // the last one to go takes the window with it
	nextOrd uint64       // definition-order stamp of the next member
	armed   []*aStarNode // ascending ord; entries may have been flushed since
}

func (w *txnWindow) Kids() []Node { return nil } // members propagate contexts to S and T themselves

func (w *txnWindow) addContext(ctx Context) { w.bumpContext(ctx, 1) }

func (w *txnWindow) removeContext(ctx Context) {
	w.bumpContext(ctx, -1)
	if !w.activeIn(ctx) {
		w.open[ctx] = nil
	}
}

func (w *txnWindow) subscribe(sub Subscriber, ctx Context) func() {
	return subscribeOp(w, &w.nodeCore, sub, ctx)
}

// arm lists m for the next close, keeping definition order.
func (w *txnWindow) arm(m *aStarNode) {
	m.armed = true
	i := len(w.armed)
	w.armed = append(w.armed, m)
	for ; i > 0 && w.armed[i-1].ord > m.ord; i-- {
		w.armed[i] = w.armed[i-1]
	}
	w.armed[i] = m
}

func (w *txnWindow) receive(occ *event.Occurrence, side int, ctx Context) {
	family := w.d.families
	switch side {
	case 0:
		if family != nil {
			w.open[ctx] = append(w.open[ctx], occ) // one S per transaction, RECENT too
		} else {
			w.add(occ, ctx)
		}
	case 2:
		// T arrives once per active context, lowest first. The first
		// arrival closes every context, so that the members emit in
		// (definition order, context) order — the order their own parent
		// edges on T would have produced.
		if ctx != Context(bits.TrailingZeros8(w.active)) {
			return
		}
		var fam []uint64
		if family != nil && len(w.armed) > 0 {
			if fam = family(occ.Txn); fam == nil {
				fam = []uint64{occ.Txn}
			}
			slices.Sort(fam)
		}
		// A member's emission can arm a later-defined member whose E
		// contains the emitting event; it lands behind i and closes too.
		for i := 0; i < len(w.armed); i++ {
			m := w.armed[i]
			m.armed = false
			for c := Context(0); c < numContexts; c++ {
				if family != nil {
					m.closeFamily(occ, c, fam)
				} else {
					m.close(occ, c)
				}
			}
		}
		if family == nil {
			clear(w.armed)
			w.armed = w.armed[:0]
			for c := Context(0); c < numContexts; c++ {
				w.clear(c)
			}
			return
		}
		// Members still holding other families' occurrences stay armed.
		kept := w.armed[:0]
		for _, m := range w.armed {
			if !m.armed && m.occupancy() > 0 {
				m.armed = true
				kept = append(kept, m)
			}
		}
		clear(w.armed[len(kept):])
		w.armed = kept
		for c := Context(0); c < numContexts; c++ {
			w.open[c] = w.open[c].dropTxn(occ.Txn)
		}
	}
}

// joinTxnWindow makes n a member of the window shared over start and
// end, creating it on first use. The window's edges are kept last on
// both: n's E may itself contain start or end, and must see such an
// occurrence before the window does, as it would before n's own edges.
// Callers hold structMu and the lock of comp, n's (merged) component.
func (d *Detector) joinTxnWindow(n *aStarNode, start, end *PrimitiveNode, comp *component) {
	key := [2]*PrimitiveNode{start, end}
	w := d.txnWindows[key]
	if w == nil {
		w = &txnWindow{nodeCore: nodeCore{d: d, name: "window(" + start.name + "," + end.name + ")", comp: comp}}
		d.txnWindows[key] = w
	}
	start.attachLast(w, 0)
	end.attachLast(w, 2)
	w.members++
	w.nextOrd++
	n.ord = w.nextOrd
	n.win, n.shared = &w.aperWindow, w
}

// leaveTxnWindow takes a collected member out of its window, and the
// window out of the graph with its last member. Callers hold structMu
// and the component lock.
func (d *Detector) leaveTxnWindow(n *aStarNode) {
	w := n.shared
	if i := slices.Index(w.armed, n); i >= 0 {
		w.armed = slices.Delete(w.armed, i, i+1)
	}
	if w.members--; w.members == 0 {
		start, end := n.kids[0].(*PrimitiveNode), n.kids[2].(*PrimitiveNode)
		start.detachParent(w)
		end.detachParent(w)
		delete(d.txnWindows, [2]*PrimitiveNode{start, end})
	}
}
