package detector

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/event"
)

// This file implements the admission and routing index: the one table that
// says which primitive nodes a signal fires and which components they live
// in. The index is copy-on-write: every operation that can change what a
// signal matches or where it routes (defining events or classes, attaching
// operator parents — which may merge components — subscribing or
// unsubscribing rules) drops it under the structure lock *before* mutating,
// and the next signal that needs it rebuilds it, also under the structure
// lock. Readers only ever see a complete, immutable table through the
// atomic pointer.
//
// Two guarantees follow:
//
//   - Rejection is linearized at the pointer load: a signal dropped
//     because its key is absent is equivalent to the same signal arriving
//     just before whatever subscription raced with it.
//
//   - Routing is validated after locking: a route stores the *root
//     component* of every node it fires, pre-resolved at build time. A
//     signaller locks those components and then re-checks that the
//     published index is still the one it routed through. Structure
//     mutations drop the index before touching any node or component, so
//     an unchanged pointer observed under the component locks proves the
//     components are still roots and the node list is still exact; a
//     changed pointer sends the signal, which has fired nothing yet, to the
//     serialized entry (Detector.signal).

// methodKey identifies what a method signal must present to be admitted:
// the signalled (dynamic) class, the method signature, and the modifier.
type methodKey struct {
	class  string
	method string
	mod    event.Modifier
}

// route is where one signal goes: the primitive nodes it fires — for a
// method key every live node on the class chain, in chain then definition
// order, with only the instance-level OID filter left for signal time; for
// a name the one node it names — and their root components in ascending id
// order, the order their locks are taken in. Almost always one component,
// but a method signal can match primitive events of unrelated expressions.
type route struct {
	comps []*component
	nodes []*PrimitiveNode
	kind  event.Kind // of the named node; KindMethod for a method key
	named bool       // reached by name: no instance filter applies
	live  bool       // some consumer can observe the nodes' occurrences
}

// add appends a node to the route, keeping comps ascending and distinct.
func (r *route) add(p *PrimitiveNode) {
	r.nodes = append(r.nodes, p)
	c := p.comp.find()
	i := sort.Search(len(r.comps), func(i int) bool { return r.comps[i].id >= c.id })
	if i == len(r.comps) || r.comps[i] != c {
		r.comps = slices.Insert(r.comps, i, c)
	}
}

// matchIndex is the immutable admission and routing table.
type matchIndex struct {
	methods map[methodKey]*route
	names   map[string]*route
}

// route finds where src goes: by name when it carries one, by (class,
// method, modifier) when it is a method occurrence without a name or with
// one nothing defines (method events may be addressed by signature). A nil
// route means nothing consumes src; ok is false when src cannot be signalled
// at all — it names no primitive event, or is an explicit occurrence aimed
// at something other than an explicit event — and on a nil index.
func (idx *matchIndex) route(src *event.Occurrence) (r *route, ok bool) {
	if idx == nil {
		return nil, false
	}
	if src.Name != "" {
		if r := idx.names[src.Name]; r != nil {
			return r, r.kind == event.KindExplicit || src.Kind != event.KindExplicit
		}
	}
	if src.Kind != event.KindMethod {
		return nil, false
	}
	return idx.methods[methodKey{class: src.Class, method: src.Method, mod: src.Modifier}], true
}

// live reports whether some consumer can observe this node's occurrences:
// a subscribed rule, an operator parent, or an activated context.
func (c *nodeCore) live() bool {
	return c.anyActive() || len(c.rules) > 0 || len(c.parents) > 0
}

// admitLocked returns the current admission index, rebuilding it if a
// mutation invalidated it. Callers hold structMu.
func (d *Detector) admitLocked() *matchIndex {
	if idx := d.admit.Load(); idx != nil {
		return idx
	}
	idx := d.buildAdmitLocked()
	d.admit.Store(idx)
	return idx
}

// buildAdmitLocked flattens the class hierarchy, per-class primitive
// lists, and component membership into the admission table. The walk up
// the inheritance chain over the per-class lists is the paper's
// primitive-event index ("each primitive event is maintained as a list
// based on the class on which it is defined"), done here once per
// structure change instead of once per signal. Callers hold structMu, under
// which membership and liveness are stable.
func (d *Detector) buildAdmitLocked() *matchIndex {
	idx := &matchIndex{
		methods: make(map[methodKey]*route),
		names:   make(map[string]*route),
	}
	// Every class a signal can name and still match something: classes
	// with primitive events defined on them plus every declared class
	// (a subclass inherits its ancestors' class-level events).
	known := make(map[string]struct{}, len(d.classes)+len(d.super))
	for c := range d.classes {
		known[c] = struct{}{}
	}
	for c := range d.super {
		known[c] = struct{}{}
	}
	maxDepth := len(known) + 1 // guards against a cyclic super chain
	for c := range known {
		depth := 0
		for anc := c; anc != "" && depth < maxDepth; anc, depth = d.super[anc], depth+1 {
			for _, p := range d.classes[anc] {
				if !p.live() {
					continue
				}
				key := methodKey{class: c, method: p.method, mod: p.modifier}
				r := idx.methods[key]
				if r == nil {
					r = &route{kind: event.KindMethod, live: true}
					idx.methods[key] = r
				}
				r.add(p)
			}
		}
	}
	for name, n := range d.nodes {
		if p, ok := n.(*PrimitiveNode); ok {
			r := &route{kind: p.kind, named: true, live: p.live()}
			r.add(p)
			idx.names[name] = r
		}
	}
	return idx
}

// sortComps orders components ascending by id — the fixed lock order.
func sortComps(comps []*component) {
	slices.SortFunc(comps, func(a, b *component) int { return cmp.Compare(a.id, b.id) })
}

// ---------------------------------------------------------------------------
// Occurrence pool
// ---------------------------------------------------------------------------

// occPool recycles the template occurrences Detector.fire stamps. Pooling
// discipline: a pooled occurrence never escapes the detector —
// PrimitiveNode.fire copies the template before anything downstream sees
// it, so the template can be returned as soon as its nodes have fired. The
// one consumer that receives the template itself is an installed Tracer
// (TraceRaw hands it the original, and a tracer may retain occurrences), so
// a template a tracer has seen is not returned to the pool.
var occPool = sync.Pool{New: func() any { return new(event.Occurrence) }}

// getOcc returns a zeroed template occurrence.
func getOcc() *event.Occurrence { return occPool.Get().(*event.Occurrence) }

// putOcc clears and recycles a template so it does not pin parameter
// lists until its next reuse.
func putOcc(o *event.Occurrence) {
	*o = event.Occurrence{}
	occPool.Put(o)
}
