// Package query is Sentinel's declarative condition and query engine:
// composable streaming relational-algebra iterators (select, project,
// join, group-aggregate, sort, limit) over the object store, persistent
// secondary indexes (hash and ordered) maintained through the storage
// manager's WAL so they crash-recover and replicate with the data, and a
// small planner that compiles predicate trees into iterator plans with
// equality/range conjuncts pushed down to index scans.
//
// Rule conditions expressed as predicates (rules.Spec.Where) evaluate
// through the planner against the firing transaction's snapshot, turning
// the condition leg of an E-C-A firing from an opaque O(extent) Go func
// into an optimizable O(log n) probe.
package query

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/event"
)

// Pred is a predicate over an object's attributes. Predicates are
// immutable expression trees the planner can inspect: comparison leaves
// over one attribute each, combined with And/Or/Not. They are this
// package's closed set (the constructors below), so a plan always knows
// which attributes its predicate reads.
type Pred interface {
	// Eval reports whether the attributes satisfy the predicate.
	// Comparisons between incomparable types are false.
	Eval(attrs map[string]any) bool
	String() string
	// bind compiles the predicate against a slot row whose slot i holds
	// the attribute names[i]; names holds every attribute it reads.
	bind(names []string) bound
}

// bound is a predicate bound to a slot row (Pred.bind): each comparison
// reads its slot by index against its literal, normalized once.
type bound interface {
	eval(row []event.Slot) bool
}

// bindPred is p.bind(names), nil for no predicate.
func bindPred(p Pred, names []string) bound {
	if p == nil {
		return nil
	}
	return p.bind(names)
}

type cmpOp uint8

const (
	opEq cmpOp = iota + 1
	opNe
	opLt
	opLe
	opGt
	opGe
)

func (o cmpOp) String() string {
	switch o {
	case opEq:
		return "="
	case opNe:
		return "!="
	case opLt:
		return "<"
	case opLe:
		return "<="
	case opGt:
		return ">"
	case opGe:
		return ">="
	}
	return "?"
}

// cmp is a comparison leaf: attr OP literal. norm is the literal as a
// normalized slot (ok=false: the literal is not atomic, so the comparison
// is incomparable with everything).
type cmp struct {
	attr string
	op   cmpOp
	val  any
	norm event.Slot
	ok   bool
}

func newCmp(attr string, op cmpOp, v any) *cmp {
	s, ok := event.SlotOf(v)
	return &cmp{attr: attr, op: op, val: v, norm: normalize(s), ok: ok}
}

func (c *cmp) Eval(attrs map[string]any) bool {
	v, ok := event.SlotOf(attrs[c.attr]) // an absent attribute is nil
	if !ok {
		return c.op == opNe
	}
	return c.test(v)
}

func (c *cmp) bind(names []string) bound { return boundCmp{c: c, slot: slices.Index(names, c.attr)} }

// test compares v with the literal.
func (c *cmp) test(v event.Slot) bool {
	rel, comparable := compareNorm(normalize(v), c.norm)
	if !comparable || !c.ok {
		return c.op == opNe // incomparable values are unequal, nothing more
	}
	switch c.op {
	case opEq:
		return rel == 0
	case opNe:
		return rel != 0
	case opLt:
		return rel < 0
	case opLe:
		return rel <= 0
	case opGt:
		return rel > 0
	case opGe:
		return rel >= 0
	}
	return false
}

type boundCmp struct {
	c    *cmp
	slot int
}

func (b boundCmp) eval(row []event.Slot) bool { return b.c.test(row[b.slot]) }

func (c *cmp) String() string {
	return fmt.Sprintf("%s %s %v", c.attr, c.op, c.val)
}

// Eq matches attr == v.
func Eq(attr string, v any) Pred { return newCmp(attr, opEq, v) }

// Ne matches attr != v.
func Ne(attr string, v any) Pred { return newCmp(attr, opNe, v) }

// Lt matches attr < v.
func Lt(attr string, v any) Pred { return newCmp(attr, opLt, v) }

// Le matches attr <= v.
func Le(attr string, v any) Pred { return newCmp(attr, opLe, v) }

// Gt matches attr > v.
func Gt(attr string, v any) Pred { return newCmp(attr, opGt, v) }

// Ge matches attr >= v.
func Ge(attr string, v any) Pred { return newCmp(attr, opGe, v) }

// Between matches lo <= attr <= hi.
func Between(attr string, lo, hi any) Pred {
	return And(Ge(attr, lo), Le(attr, hi))
}

type andPred struct{ kids []Pred }

func (a *andPred) Eval(attrs map[string]any) bool {
	for _, k := range a.kids {
		if !k.Eval(attrs) {
			return false
		}
	}
	return true
}

func (a *andPred) String() string { return joinPreds(a.kids, " AND ") }

func (a *andPred) bind(names []string) bound { return boundAnd(bindAll(a.kids, names)) }

type boundAnd []bound

func (a boundAnd) eval(row []event.Slot) bool {
	for _, k := range a {
		if !k.eval(row) {
			return false
		}
	}
	return true
}

type orPred struct{ kids []Pred }

func (o *orPred) Eval(attrs map[string]any) bool {
	for _, k := range o.kids {
		if k.Eval(attrs) {
			return true
		}
	}
	return false
}

func (o *orPred) String() string { return joinPreds(o.kids, " OR ") }

func (o *orPred) bind(names []string) bound { return boundOr(bindAll(o.kids, names)) }

type boundOr []bound

func (o boundOr) eval(row []event.Slot) bool {
	for _, k := range o {
		if k.eval(row) {
			return true
		}
	}
	return false
}

func bindAll(ps []Pred, names []string) []bound {
	out := make([]bound, len(ps))
	for i, p := range ps {
		out[i] = p.bind(names)
	}
	return out
}

type notPred struct{ kid Pred }

func (n *notPred) Eval(attrs map[string]any) bool { return !n.kid.Eval(attrs) }
func (n *notPred) String() string                 { return "NOT (" + n.kid.String() + ")" }
func (n *notPred) bind(names []string) bound      { return boundNot{n.kid.bind(names)} }

type boundNot struct{ kid bound }

func (n boundNot) eval(row []event.Slot) bool { return !n.kid.eval(row) }

func joinPreds(kids []Pred, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = "(" + k.String() + ")"
	}
	return strings.Join(parts, sep)
}

// And matches when every predicate matches (true for no predicates).
func And(ps ...Pred) Pred {
	flat := make([]Pred, 0, len(ps))
	for _, p := range ps {
		if a, ok := p.(*andPred); ok {
			flat = append(flat, a.kids...)
		} else if p != nil {
			flat = append(flat, p)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &andPred{kids: flat}
}

// Or matches when any predicate matches (false for no predicates).
func Or(ps ...Pred) Pred {
	flat := make([]Pred, 0, len(ps))
	for _, p := range ps {
		if o, ok := p.(*orPred); ok {
			flat = append(flat, o.kids...)
		} else if p != nil {
			flat = append(flat, p)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &orPred{kids: flat}
}

// Not negates a predicate.
func Not(p Pred) Pred { return &notPred{kid: p} }

// predAttrs appends to names the attributes p reads that it lacks.
func predAttrs(p Pred, names []string) []string {
	switch x := p.(type) {
	case *cmp:
		return addName(names, x.attr)
	case *notPred:
		return predAttrs(x.kid, names)
	case *andPred:
		for _, k := range x.kids {
			names = predAttrs(k, names)
		}
	case *orPred:
		for _, k := range x.kids {
			names = predAttrs(k, names)
		}
	}
	return names
}

func addName(names []string, name string) []string {
	if slices.Contains(names, name) {
		return names
	}
	return append(names, name)
}

// conjuncts returns the top-level AND factors of p — the units predicate
// pushdown works on. A non-AND predicate is its own single conjunct.
func conjuncts(p Pred) []Pred {
	if p == nil {
		return nil
	}
	if a, ok := p.(*andPred); ok {
		return a.kids
	}
	return []Pred{p}
}

// indexBound describes what one comparison conjunct asks of an index on
// its attribute: an exact key or a half-open/closed range side.
type indexBound struct {
	attr  string
	eq    bool
	eqVal any
	lo    any
	loInc bool
	hasLo bool
	hi    any
	hiInc bool
	hasHi bool
}

// boundOf extracts the index-bindable bound from a conjunct, ok=false for
// conjuncts that cannot drive an index scan (Ne, Or, Not, nested And).
func boundOf(p Pred) (indexBound, bool) {
	c, ok := p.(*cmp)
	if !ok {
		return indexBound{}, false
	}
	b := indexBound{attr: c.attr}
	switch c.op {
	case opEq:
		b.eq, b.eqVal = true, c.val
	case opLt:
		b.hi, b.hiInc, b.hasHi = c.val, false, true
	case opLe:
		b.hi, b.hiInc, b.hasHi = c.val, true, true
	case opGt:
		b.lo, b.loInc, b.hasLo = c.val, false, true
	case opGe:
		b.lo, b.loInc, b.hasLo = c.val, true, true
	default:
		return indexBound{}, false
	}
	return b, true
}
