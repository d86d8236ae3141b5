package detector

import (
	"slices"

	"repro/internal/event"
)

// opCore extends nodeCore with child bookkeeping shared by all operator
// nodes: context counters recurse into children so that the whole
// expression subtree detects exactly in the contexts some rule needs
// (§3.2.2(1) of the paper).
type opCore struct {
	nodeCore
	kids []Node
}

func (o *opCore) Kids() []Node { return o.kids }

func (o *opCore) addContextKids(ctx Context) {
	for _, k := range o.kids {
		k.addContext(ctx)
	}
}

func (o *opCore) removeContextKids(ctx Context) {
	for _, k := range o.kids {
		k.removeContext(ctx)
	}
}

// subscribeOp implements rule subscription for an operator node n: the
// context is propagated over the whole subtree, and the rule is added to
// the node's subscriber list.
func subscribeOp(n Node, core *nodeCore, sub Subscriber, ctx Context) func() {
	n.addContext(ctx)
	undoRule := core.addRule(sub, ctx)
	return func() {
		undoRule()
		n.removeContext(ctx)
	}
}

// ---------------------------------------------------------------------------
// OR
// ---------------------------------------------------------------------------

// orNode detects E1 ∨ E2: an occurrence of either child is an occurrence
// of the disjunction. It keeps no state, so parameter contexts coincide.
type orNode struct {
	opCore
}

func (n *orNode) addContext(ctx Context) {
	n.bumpContext(ctx, 1)
	n.addContextKids(ctx)
}

func (n *orNode) removeContext(ctx Context) {
	n.bumpContext(ctx, -1)
	n.removeContextKids(ctx)
}

func (n *orNode) subscribe(sub Subscriber, ctx Context) func() {
	return subscribeOp(n, &n.nodeCore, sub, ctx)
}

func (n *orNode) flushTxn(uint64) {}
func (n *orNode) flushAll()       {}
func (n *orNode) occupancy() int  { return 0 }

func (n *orNode) receive(occ *event.Occurrence, side int, ctx Context) {
	n.emit(compose(n.name, occ), ctx)
}

// ---------------------------------------------------------------------------
// AND
// ---------------------------------------------------------------------------

// andState is the per-context store of unpaired occurrences of each side.
type andState struct {
	side [2]occList
}

// andNode detects E1 ∧ E2 (both occurred, any order). The side that
// occurs first initiates; the other terminates.
type andNode struct {
	opCore
	st [numContexts]andState
}

func (n *andNode) addContext(ctx Context) {
	n.bumpContext(ctx, 1)
	n.addContextKids(ctx)
}

func (n *andNode) removeContext(ctx Context) {
	n.bumpContext(ctx, -1)
	if !n.activeIn(ctx) {
		n.st[ctx] = andState{}
	}
	n.removeContextKids(ctx)
}

func (n *andNode) subscribe(sub Subscriber, ctx Context) func() {
	return subscribeOp(n, &n.nodeCore, sub, ctx)
}

func (n *andNode) flushTxn(txnID uint64) {
	for c := range n.st {
		for s := range n.st[c].side {
			n.st[c].side[s] = n.st[c].side[s].dropTxn(txnID)
		}
	}
}

func (n *andNode) flushAll() {
	for c := range n.st {
		n.st[c] = andState{}
	}
}

func (n *andNode) occupancy() int {
	total := 0
	for c := range n.st {
		total += len(n.st[c].side[0]) + len(n.st[c].side[1])
	}
	return total
}

func (n *andNode) receive(occ *event.Occurrence, side int, ctx Context) {
	st := &n.st[ctx]
	other := &st.side[1-side]
	mine := &st.side[side]
	switch ctx {
	case Recent:
		// Keep only the most recent occurrence of each side; once both
		// sides are present, every new arrival re-detects with the most
		// recent partner.
		*mine = append((*mine)[:0], occ)
		if len(*other) > 0 {
			n.emit(composeInSeq(n.name, (*other)[len(*other)-1], occ), ctx)
		}
	case Chronicle:
		*mine = append(*mine, occ)
		for len(st.side[0]) > 0 && len(st.side[1]) > 0 {
			a, b := st.side[0][0], st.side[1][0]
			st.side[0] = st.side[0].popFront()
			st.side[1] = st.side[1].popFront()
			n.emit(composeInSeq(n.name, a, b), ctx)
		}
	case Continuous:
		// Every stored occurrence of the other side opened a window;
		// this arrival closes all of them at once.
		if len(*other) > 0 {
			for _, o := range *other {
				n.emit(composeInSeq(n.name, o, occ), ctx)
			}
			*other = other.reset()
		} else {
			*mine = append(*mine, occ)
		}
	case Cumulative:
		*mine = append(*mine, occ)
		if len(st.side[0]) > 0 && len(st.side[1]) > 0 {
			n.emit(composeMerged(n.name, nil, st.side[0], st.side[1]), ctx)
			st.side[0] = st.side[0].reset()
			st.side[1] = st.side[1].reset()
		}
	}
}

// ---------------------------------------------------------------------------
// SEQ
// ---------------------------------------------------------------------------

// seqState stores unconsumed initiators per context.
type seqState struct {
	left occList
}

// seqNode detects E1 ; E2 — E1 strictly before E2 (the initiator's
// interval must end before the terminator's begins).
type seqNode struct {
	opCore
	st [numContexts]seqState
}

func (n *seqNode) addContext(ctx Context) {
	n.bumpContext(ctx, 1)
	n.addContextKids(ctx)
}

func (n *seqNode) removeContext(ctx Context) {
	n.bumpContext(ctx, -1)
	if !n.activeIn(ctx) {
		n.st[ctx] = seqState{}
	}
	n.removeContextKids(ctx)
}

func (n *seqNode) subscribe(sub Subscriber, ctx Context) func() {
	return subscribeOp(n, &n.nodeCore, sub, ctx)
}

func (n *seqNode) flushTxn(txnID uint64) {
	for c := range n.st {
		n.st[c].left = n.st[c].left.dropTxn(txnID)
	}
}

func (n *seqNode) flushAll() {
	for c := range n.st {
		n.st[c] = seqState{}
	}
}

func (n *seqNode) occupancy() int {
	total := 0
	for c := range n.st {
		total += len(n.st[c].left)
	}
	return total
}

func (n *seqNode) receive(occ *event.Occurrence, side int, ctx Context) {
	st := &n.st[ctx]
	if side == 0 {
		st.open(occ, ctx)
	} else {
		n.terminate(st, occ, ctx)
	}
}

// open records an initiator: RECENT overwrites the one it keeps in place,
// the other contexts keep them all.
func (st *seqState) open(occ *event.Occurrence, ctx Context) {
	if ctx == Recent {
		st.left = append(st.left[:0], occ)
	} else {
		st.left = append(st.left, occ)
	}
}

// terminate pairs terminator occ with the stored initiators per the
// context, for SEQ and for the terminator of NOT: only initiators that
// completed before occ began may pair with it.
func (n *opCore) terminate(st *seqState, occ *event.Occurrence, ctx Context) {
	cut := occ.StartSeq()
	switch ctx {
	case Recent:
		if len(st.left) > 0 && st.left[len(st.left)-1].Seq < cut {
			n.emit(compose(n.name, st.left[len(st.left)-1], occ), ctx)
		}
	case Chronicle:
		// The oldest initiator that completed before occ pairs. It is
		// nearly always the head, which pops in O(1); only a terminator
		// that overlaps the head shifts the backlog.
		for i, l := range st.left {
			if l.Seq < cut {
				if i == 0 {
					st.left = st.left.popFront()
				} else {
					st.left = slices.Delete(st.left, i, i+1)
				}
				n.emit(compose(n.name, l, occ), ctx)
				return
			}
		}
	case Continuous:
		// Emission reaches only ancestors of this node, never its store,
		// so the survivors compact in place as the pairs go out.
		rest := st.left[:0]
		for _, l := range st.left {
			if l.Seq < cut {
				n.emit(compose(n.name, l, occ), ctx)
			} else {
				rest = append(rest, l)
			}
		}
		clear(st.left[len(rest):])
		st.left = rest
	case Cumulative:
		// The initiators that pair go out in one composite; a buffer keeps
		// up to eight of them on the stack (composeMerged copies).
		var buf [8]*event.Occurrence
		used := occList(buf[:0])
		rest := st.left[:0]
		for _, l := range st.left {
			if l.Seq < cut {
				used = append(used, l)
			} else {
				rest = append(rest, l)
			}
		}
		clear(st.left[len(rest):])
		st.left = rest
		if len(used) > 0 {
			n.emit(composeMerged(n.name, occ, used), ctx)
		}
	}
}

// ---------------------------------------------------------------------------
// NOT
// ---------------------------------------------------------------------------

// notNode detects NOT(E2)[E1, E3]: E3 after E1 with no intervening E2.
// Children are ordered initiator (E1), forbidden (E2), terminator (E3).
type notNode struct {
	opCore
	st [numContexts]seqState // open initiators, invalidated by E2
}

func (n *notNode) addContext(ctx Context) {
	n.bumpContext(ctx, 1)
	n.addContextKids(ctx)
}

func (n *notNode) removeContext(ctx Context) {
	n.bumpContext(ctx, -1)
	if !n.activeIn(ctx) {
		n.st[ctx] = seqState{}
	}
	n.removeContextKids(ctx)
}

func (n *notNode) subscribe(sub Subscriber, ctx Context) func() {
	return subscribeOp(n, &n.nodeCore, sub, ctx)
}

func (n *notNode) flushTxn(txnID uint64) {
	for c := range n.st {
		n.st[c].left = n.st[c].left.dropTxn(txnID)
	}
}

func (n *notNode) flushAll() {
	for c := range n.st {
		n.st[c] = seqState{}
	}
}

func (n *notNode) occupancy() int {
	total := 0
	for c := range n.st {
		total += len(n.st[c].left)
	}
	return total
}

func (n *notNode) receive(occ *event.Occurrence, side int, ctx Context) {
	st := &n.st[ctx]
	switch side {
	case 0: // initiator
		st.open(occ, ctx)
	case 1: // forbidden event: every open window containing it dies
		rest := st.left[:0]
		for _, l := range st.left {
			if l.Seq >= occ.Seq {
				rest = append(rest, l)
			}
		}
		clear(st.left[len(rest):])
		st.left = rest
	case 2: // terminator: pairs exactly like SEQ
		n.terminate(st, occ, ctx)
	}
}

// ---------------------------------------------------------------------------
// ANY
// ---------------------------------------------------------------------------

// anyState stores pending occurrences per child event type.
type anyState struct {
	byType []occList
}

// anyNode detects ANY(m, E1, …, En): m distinct event types out of the n
// listed have occurred.
type anyNode struct {
	opCore
	m  int
	st [numContexts]anyState
}

func (n *anyNode) addContext(ctx Context) {
	n.bumpContext(ctx, 1)
	n.addContextKids(ctx)
}

func (n *anyNode) removeContext(ctx Context) {
	n.bumpContext(ctx, -1)
	if !n.activeIn(ctx) {
		n.st[ctx] = anyState{}
	}
	n.removeContextKids(ctx)
}

func (n *anyNode) subscribe(sub Subscriber, ctx Context) func() {
	return subscribeOp(n, &n.nodeCore, sub, ctx)
}

func (n *anyNode) flushTxn(txnID uint64) {
	for c := range n.st {
		for i := range n.st[c].byType {
			n.st[c].byType[i] = n.st[c].byType[i].dropTxn(txnID)
		}
	}
}

func (n *anyNode) flushAll() {
	for c := range n.st {
		n.st[c] = anyState{}
	}
}

func (n *anyNode) occupancy() int {
	total := 0
	for c := range n.st {
		for _, l := range n.st[c].byType {
			total += len(l)
		}
	}
	return total
}

func (n *anyNode) receive(occ *event.Occurrence, side int, ctx Context) {
	st := &n.st[ctx]
	if st.byType == nil {
		st.byType = make([]occList, len(n.kids))
	}
	if ctx == Recent {
		st.byType[side] = append(st.byType[side][:0], occ)
	} else {
		st.byType[side] = append(st.byType[side], occ)
	}
	distinct := 0
	for _, l := range st.byType {
		if len(l) > 0 {
			distinct++
		}
	}
	if distinct < n.m {
		return
	}
	if ctx == Cumulative {
		// Everything accumulated goes into one composite.
		n.emit(composeMerged(n.name, nil, st.byType...), ctx)
		st.reset()
		return
	}
	// One candidate per present type — its newest occurrence in RECENT,
	// its oldest otherwise — in a buffer that stays on the stack for any
	// operator of up to eight events (compose copies what it keeps).
	var buf [8]*event.Occurrence
	cands := buf[:0]
	for _, l := range st.byType {
		if len(l) > 0 {
			if ctx == Recent {
				cands = append(cands, l[len(l)-1])
			} else {
				cands = append(cands, l[0])
			}
		}
	}
	event.SortBySeq(cands)
	switch ctx {
	case Recent:
		// The m newest types form the composite. State is retained.
		n.emit(compose(n.name, cands[len(cands)-n.m:]...), ctx)
	case Chronicle:
		// The m oldest complete; consume the ones used.
		picked := cands[:n.m]
		for i, l := range st.byType {
			if len(l) > 0 && slices.Contains(picked, l[0]) {
				st.byType[i] = l.popFront()
			}
		}
		n.emit(compose(n.name, picked...), ctx)
	case Continuous:
		// The m oldest complete; the whole store is consumed.
		st.reset()
		n.emit(compose(n.name, cands[:n.m]...), ctx)
	}
}

// reset empties every per-type store, keeping the backing arrays.
func (st *anyState) reset() {
	for i := range st.byType {
		st.byType[i] = st.byType[i].reset()
	}
}
