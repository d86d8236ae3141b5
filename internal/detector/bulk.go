package detector

import (
	"fmt"

	"repro/internal/event"
)

// Bulk is a single-lock-window builder over the detector: every method
// mirrors the corresponding Detector method but runs with the structure
// lock already held, so a batch of thousands of definitions pays for one
// lock acquisition and one admission-index rebuild instead of one per
// node. Obtain one through BulkBuild; a Bulk must not escape its window.
type Bulk struct{ d *Detector }

// BulkBuild runs fn with the structure lock held for the whole batch.
// The admission index is invalidated once on entry (so no signal can route
// through pre-batch structure while the graph mutates), instead of per
// definition; the first signal after the window rebuilds it, so windows
// that follow one another (a specification's events, then its rules) share
// one rebuild. Signals arriving during the window serialize behind it,
// exactly as they would behind any single structural mutation.
func (d *Detector) BulkBuild(fn func(*Bulk) error) error {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	d.admit.Store(nil)
	d.batching = true
	err := fn(&Bulk{d: d})
	d.batching = false
	return err
}

// DeclareClass mirrors Detector.DeclareClass.
func (b *Bulk) DeclareClass(name, super string) { b.d.declareClassLocked(name, super) }

// DefinePrimitive mirrors Detector.DefinePrimitive.
func (b *Bulk) DefinePrimitive(name, class, method string, mod event.Modifier, instance event.OID) (Node, error) {
	d := b.d
	sig := fmt.Sprintf("prim(%s,%s,%s,%d)", class, method, mod, instance)
	return d.register(name, sig, func() Node {
		p := &PrimitiveNode{
			nodeCore: nodeCore{d: d, name: name, comp: d.newComponent(), permanent: true},
			kind:     event.KindMethod,
			class:    class,
			method:   method,
			modifier: mod,
			instance: instance,
		}
		d.classes[class] = append(d.classes[class], p)
		return p
	})
}

// DefineExplicit mirrors Detector.DefineExplicit.
func (b *Bulk) DefineExplicit(name string) (Node, error) {
	d := b.d
	return d.register(name, "explicit("+name+")", func() Node {
		return &PrimitiveNode{
			nodeCore: nodeCore{d: d, name: name, comp: d.newComponent(), permanent: true},
			kind:     event.KindExplicit,
		}
	})
}

// TransactionEvent mirrors Detector.TransactionEvent.
func (b *Bulk) TransactionEvent(name string) (Node, error) {
	switch name {
	case event.BeginTransaction, event.PreCommit, event.CommitTransaction, event.AbortTransaction:
	default:
		return nil, fmt.Errorf("%w: %q is not a transaction event", ErrBadOperand, name)
	}
	return b.d.txnNode(name), nil
}

// Alias mirrors Detector.Alias.
func (b *Bulk) Alias(alias, existing string) error { return b.d.aliasLocked(alias, existing) }

// Lookup mirrors Detector.Lookup.
func (b *Bulk) Lookup(name string) (Node, error) {
	if n, ok := b.d.nodes[name]; ok {
		return n, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownEvent, name)
}

// And mirrors Detector.And.
func (b *Bulk) And(name string, x, y Node) (Node, error) {
	kids := []Node{x, y}
	return b.d.opNode(name, "and("+childSig(kids)+")", kids, func(core opCore) operatorNode {
		return &andNode{opCore: core}
	})
}

// Or mirrors Detector.Or.
func (b *Bulk) Or(name string, x, y Node) (Node, error) {
	kids := []Node{x, y}
	return b.d.opNode(name, "or("+childSig(kids)+")", kids, func(core opCore) operatorNode {
		return &orNode{opCore: core}
	})
}

// Seq mirrors Detector.Seq.
func (b *Bulk) Seq(name string, x, y Node) (Node, error) {
	kids := []Node{x, y}
	return b.d.opNode(name, "seq("+childSig(kids)+")", kids, func(core opCore) operatorNode {
		return &seqNode{opCore: core}
	})
}

// Not mirrors Detector.Not.
func (b *Bulk) Not(name string, start, mid, end Node) (Node, error) {
	kids := []Node{start, mid, end}
	return b.d.opNode(name, "not("+childSig(kids)+")", kids, func(core opCore) operatorNode {
		return &notNode{opCore: core}
	})
}

// Any mirrors Detector.Any.
func (b *Bulk) Any(name string, m int, events ...Node) (Node, error) {
	if m < 1 || m > len(events) {
		return nil, fmt.Errorf("%w: ANY(%d) of %d events", ErrBadOperand, m, len(events))
	}
	return b.d.opNode(name, fmt.Sprintf("any(%d,%s)", m, childSig(events)), events, func(core opCore) operatorNode {
		return &anyNode{opCore: core, m: m}
	})
}

// A mirrors Detector.A.
func (b *Bulk) A(name string, start, mid, end Node) (Node, error) {
	kids := []Node{start, mid, end}
	return b.d.opNode(name, "a("+childSig(kids)+")", kids, func(core opCore) operatorNode {
		return &aNode{opCore: core}
	})
}

// AStar mirrors Detector.AStar.
func (b *Bulk) AStar(name string, start, mid, end Node) (Node, error) {
	kids := []Node{start, mid, end}
	d := b.d
	return d.register(name, "astar("+childSig(kids)+")", func() Node {
		comp := d.mergeNodeComps(kids)
		comp.mu.Lock()
		defer comp.mu.Unlock()
		n := &aStarNode{opCore: opCore{nodeCore: nodeCore{d: d, name: name, comp: comp}, kids: kids}}
		s, sok := start.(*PrimitiveNode)
		t, tok := end.(*PrimitiveNode)
		if sok && tok && s != t && s.kind == event.KindTransaction && t.kind == event.KindTransaction {
			mid.attach(n, 1)
			d.joinTxnWindow(n, s, t, comp)
			return n
		}
		n.win = new(aperWindow)
		for i, k := range kids {
			k.attach(n, i)
		}
		return n
	})
}

// Plus mirrors Detector.Plus.
func (b *Bulk) Plus(name string, start Node, delta uint64) (Node, error) {
	if delta == 0 {
		return nil, fmt.Errorf("%w: PLUS with zero delta", ErrBadOperand)
	}
	kids := []Node{start}
	return b.d.opNode(name, fmt.Sprintf("plus(%s,%d)", childSig(kids), delta), kids, func(core opCore) operatorNode {
		return &plusNode{opCore: core, delta: delta}
	})
}

// P mirrors Detector.P.
func (b *Bulk) P(name string, start Node, period uint64, end Node) (Node, error) {
	return b.periodic(name, start, period, end, false)
}

// PStar mirrors Detector.PStar.
func (b *Bulk) PStar(name string, start Node, period uint64, end Node) (Node, error) {
	return b.periodic(name, start, period, end, true)
}

func (b *Bulk) periodic(name string, start Node, period uint64, end Node, star bool) (Node, error) {
	if period == 0 {
		return nil, fmt.Errorf("%w: periodic event with zero period", ErrBadOperand)
	}
	d := b.d
	op := "p"
	if star {
		op = "pstar"
	}
	sig := fmt.Sprintf("%s(%s,%d,%s)", op, start.Name(), period, end.Name())
	return d.register(name, sig, func() Node {
		comp := d.mergeNodeComps([]Node{start, end})
		comp.mu.Lock()
		defer comp.mu.Unlock()
		core := opCore{nodeCore: nodeCore{d: d, name: name, comp: comp}, kids: []Node{start, end}}
		n := &pNode{opCore: core, period: period, star: star}
		start.attach(n, 0)
		end.attach(n, 2)
		return n
	})
}

// Subscribe mirrors Detector.Subscribe. The returned unsubscribe closure
// locks the structure lock itself: it runs later, outside the window.
func (b *Bulk) Subscribe(eventName string, ctx Context, sub Subscriber) (func(), error) {
	return b.d.subscribeLocked(eventName, ctx, sub)
}

// Retain mirrors Detector.Retain.
func (b *Bulk) Retain(name string) error { return b.d.retainLocked(name) }

// Release mirrors Detector.Release.
func (b *Bulk) Release(name string) error { return b.d.releaseLocked(name) }

// SeqNow mirrors Detector.SeqNow (lock-free; exposed here so batch rule
// definition can stamp NOW trigger floors without leaving the window).
func (b *Bulk) SeqNow() uint64 { return b.d.SeqNow() }
