package query

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/txn"
)

// Q is a declarative query over one class extent: a predicate plus
// optional join, grouping, ordering, limit and projection. The planner
// compiles it to an iterator tree, binding equality/range conjuncts of
// Where to a secondary index when one exists — the residual predicate
// (in fact the whole Where, since index candidates are optimistic
// supersets) is re-evaluated against each loaded object.
type Q struct {
	// Class is the extent to read; Subclasses widens it to the subtree.
	// Indexes cover exact classes only, so subtree queries always scan.
	Class      string
	Subclasses bool
	// Where filters rows; nil selects the whole extent.
	Where Pred
	// Join, when set, equi-joins each row against another extent.
	Join *Join
	// GroupBy/Aggs turn the stream into grouped aggregates.
	GroupBy []string
	Aggs    []Agg
	// OrderBy sorts by one attribute (Desc reverses); ties break by OID.
	OrderBy string
	Desc    bool
	// Limit caps emitted rows when > 0.
	Limit int
	// Project narrows the attribute map to the named columns.
	Project []string
}

// Join describes the right side of an equi-join: rows of Class matching
// Where, joined where left.LeftAttr == right.RightAttr. The right row's
// attributes merge into the output under Prefix (default "Class.").
type Join struct {
	Class      string
	Subclasses bool
	Where      Pred
	LeftAttr   string
	RightAttr  string
	Prefix     string
}

// accessMode says how the planner reaches the base extent.
type accessMode uint8

const (
	accessExtent accessMode = iota
	accessProbe
	accessRange
)

// accessPlan is the bound leaf of a compiled query. It carries no text:
// explain renders it on demand, so running a query formats nothing.
type accessPlan struct {
	mode  accessMode
	ix    *index
	eqKey []byte // accessProbe: the encoded key
	eqVal any    // accessProbe: the value looked up (explain)
	lo    []byte // [lo, hi) over the ordered directory; nil = open (a
	hi    []byte // probe of an ordered index: the okeys of its key)
}

// chooseAccess binds the best index to Where's conjuncts: an equality
// conjunct on a hash or ordered index beats a range; range conjuncts on
// one attribute merge into a single ordered-index scan interval. Each call
// counts as one plan compiled.
func (m *Manager) chooseAccess(q Q) accessPlan {
	m.plans.Add(1)
	ext := accessPlan{mode: accessExtent}
	if q.Subclasses || q.Class == "" {
		return ext
	}
	var buf [4]indexBound // a Where has a few conjuncts: no heap slice
	bounds := buf[:0]
	for _, c := range conjuncts(q.Where) {
		if b, ok := boundOf(c); ok {
			bounds = append(bounds, b)
		}
	}
	// Equality first: most selective, served by either kind.
	for _, b := range bounds {
		if !b.eq {
			continue
		}
		ix := m.lookupIndex(q.Class, b.attr, HashIndex, OrderedIndex)
		if ix == nil {
			continue
		}
		key, ok := encodeKey(b.eqVal)
		if !ok {
			continue
		}
		ap := accessPlan{mode: accessProbe, ix: ix, eqKey: key, eqVal: b.eqVal}
		if ix.ord != nil {
			ap.lo, ap.hi = key, prefixEnd(key)
		}
		return ap
	}
	// Then a range interval on an ordered index, merging every range
	// conjunct on the chosen attribute.
	for _, b := range bounds {
		if !b.hasLo && !b.hasHi {
			continue
		}
		ix := m.lookupIndex(q.Class, b.attr, OrderedIndex)
		if ix == nil {
			continue
		}
		var lo, hi []byte
		ok := true
		for _, o := range bounds {
			if o.attr != b.attr {
				continue
			}
			if o.hasLo {
				k, kOK := encodeKey(o.lo)
				if !kOK {
					ok = false
					break
				}
				// exclusive lower: skip past every okey extending this key
				if !o.loInc && !isStringKey(k) {
					k = prefixEnd(k)
				}
				if lo == nil || bytesGreater(k, lo) {
					lo = k
				}
			}
			if o.hasHi {
				k, kOK := encodeKey(o.hi)
				if !kOK {
					ok = false
					break
				}
				// inclusive upper: include every okey extending this key
				if o.hiInc || isStringKey(k) {
					k = prefixEnd(k)
				}
				if k != nil && (hi == nil || bytesGreater(hi, k)) {
					hi = k
				}
			}
		}
		if !ok || (lo == nil && hi == nil) {
			continue
		}
		return accessPlan{mode: accessRange, ix: ix, lo: lo, hi: hi}
	}
	return ext
}

// leaf is the access path tx takes under the plan ap: ap itself, or the
// extent scan when tx may not read through ap's index (index.usableBy).
// Plan and Prepared.Exists both go through it.
func leaf(tx *txn.Txn, ap accessPlan) accessPlan {
	if ap.ix != nil && !ap.ix.usableBy(tx) {
		return accessPlan{mode: accessExtent}
	}
	return ap
}

// isStringKey reports whether k encodes a string. String keys are
// unterminated, so the okeys extending k belong to k's own postings and to
// every longer string that starts with it: an exclusive bound cannot step
// over (or stop short of) that range without losing rows. Such a bound
// scans the whole range and Verify drops the rows that only share the
// prefix — the index narrows, it never decides.
func isStringKey(k []byte) bool { return k[0] == kindStr }

func bytesGreater(a, b []byte) bool {
	return string(a) > string(b)
}

func relDesc(inclusive bool, inc string) string {
	if inclusive {
		return inc
	}
	return strings.TrimSuffix(inc, "=")
}

// describe renders the access path chosen for q.
func (ap accessPlan) describe(q Q) string {
	switch ap.mode {
	case accessProbe:
		return fmt.Sprintf("IndexProbe(%s = %v)", ap.ix.def, ap.eqVal)
	case accessRange:
		var loDesc, hiDesc []string
		for _, c := range conjuncts(q.Where) {
			b, ok := boundOf(c)
			if !ok || b.attr != ap.ix.def.Attr {
				continue
			}
			if b.hasLo {
				loDesc = append(loDesc, fmt.Sprintf("%s %v", relDesc(b.loInc, ">="), b.lo))
			}
			if b.hasHi {
				hiDesc = append(hiDesc, fmt.Sprintf("%s %v", relDesc(b.hiInc, "<="), b.hi))
			}
		}
		return fmt.Sprintf("IndexRange(%s %s)", ap.ix.def, strings.Join(append(loDesc, hiDesc...), " and "))
	}
	if q.Subclasses {
		return fmt.Sprintf("ExtentScan(%s+subclasses)", q.Class)
	}
	return fmt.Sprintf("ExtentScan(%s)", q.Class)
}

// source builds the leaf iterator for q and bumps the matching counter.
// The FULL Where re-evaluates on every loaded row — index candidates are
// optimistic supersets, so pushdown only narrows, never decides. With a
// want (referenced(q)) the rows are slot rows over it, γ's input; without,
// each row is handed out whole. Probe candidates are sorted: a locked
// query takes its object locks in OID order, and a query's rows come in a
// deterministic order.
func (m *Manager) source(tx *txn.Txn, q Q, want []string) *oidIter {
	ap := leaf(tx, m.chooseAccess(q))
	it := &oidIter{m: m, tx: tx, own: want == nil, where: q.Where}
	if !it.own {
		it.want, it.check, it.slots = want, bindPred(q.Where, want), make([]event.Slot, len(want))
	}
	switch ap.mode {
	case accessProbe:
		m.probes.Add(1)
		it.oids = ap.candidates(nil)
		slices.Sort(it.oids)
	case accessRange:
		m.rangeScans.Add(1)
		it.oids = ap.ix.rangeCandidates(ap.lo, ap.hi)
	default:
		m.extentScans.Add(1)
		it.scan = m.reg.ScanExtent(tx, q.Class, q.Subclasses)
	}
	return it
}

// referenced returns the attributes q's Where, group keys and aggregates
// read, each once: the slot layout of the rows a plan keeps to itself.
func referenced(q Q) []string {
	names := predAttrs(q.Where, make([]string, 0, len(q.GroupBy)+len(q.Aggs)+2))
	for _, col := range q.GroupBy {
		names = addName(names, col)
	}
	for _, a := range q.Aggs {
		if a.Attr != "" {
			names = addName(names, a.Attr)
		}
	}
	return names
}

// openExtent makes the checks every read of class makes before it picks a
// path: the class exists, and a locked read locks its extent
// (object.Registry.LockExtent) whatever access path it takes — index
// candidates are re-verified against the extent, and a create of the class
// must not slip in behind them.
func (m *Manager) openExtent(tx *txn.Txn, class string, subclasses bool) error {
	if class == "" {
		return fmt.Errorf("query: class required")
	}
	if _, err := m.reg.Class(class); err != nil {
		return err
	}
	return m.reg.LockExtent(tx, class, subclasses, lockmgr.Shared)
}

// Plan compiles q into an iterator tree over tx's view of the store
// (snapshot when armed, 2PL reads otherwise).
func (m *Manager) Plan(tx *txn.Txn, q Q) (Iterator, error) {
	if err := m.openExtent(tx, q.Class, q.Subclasses); err != nil {
		return nil, err
	}
	grouped := len(q.GroupBy) > 0 || len(q.Aggs) > 0
	if grouped && q.Join == nil {
		// γ reads the source's slot rows in place.
		names := referenced(q)
		return finish(newGroupIter(m.source(tx, q, names), names, q.GroupBy, q.Aggs), q), nil
	}
	var it Iterator = m.source(tx, q, nil)
	if q.Join != nil {
		j := *q.Join
		if j.LeftAttr == "" || j.RightAttr == "" {
			return nil, fmt.Errorf("query: join requires LeftAttr and RightAttr")
		}
		right, err := m.Plan(tx, Q{Class: j.Class, Subclasses: j.Subclasses, Where: j.Where})
		if err != nil {
			return nil, err
		}
		prefix := j.Prefix
		if prefix == "" {
			prefix = j.Class + "."
		}
		it = &hashJoinIter{left: it, right: right,
			leftAttr: j.LeftAttr, rightAttr: j.RightAttr, prefix: prefix}
	}
	if grouped {
		// γ over a join reads its map rows through the same slot layout.
		names := referenced(Q{GroupBy: q.GroupBy, Aggs: q.Aggs})
		it = newGroupIter(&mapSlots{Iterator: it, names: names, slots: make([]event.Slot, len(names))}, names, q.GroupBy, q.Aggs)
	}
	return finish(it, q), nil
}

// finish stacks q's sort, limit and projection on it.
func finish(it Iterator, q Q) Iterator {
	if q.OrderBy != "" {
		it = &sortIter{in: it, attr: q.OrderBy, desc: q.Desc}
	}
	if q.Limit > 0 {
		it = &limitIter{in: it, n: q.Limit}
	}
	if len(q.Project) > 0 {
		it = &projectIter{in: it, cols: q.Project}
	}
	return it
}

// Run compiles and drains q.
func (m *Manager) Run(tx *txn.Txn, q Q) ([]Row, error) {
	it, err := m.Plan(tx, q)
	if err != nil {
		return nil, err
	}
	return Collect(it)
}

// Exists reports whether any object of class satisfies pred: a one-shot
// Prepare and probe. A caller that asks the same question repeatedly (a
// rule condition) prepares it once instead.
func (m *Manager) Exists(tx *txn.Txn, class string, subclasses bool, pred Pred) (bool, error) {
	return m.Prepare(class, subclasses, pred).Exists(tx)
}

// Explain renders the plan the compiler would pick, without running it.
func (m *Manager) Explain(q Q) string { return explain(m.chooseAccess(q), q) }

func explain(ap accessPlan, q Q) string {
	parts := []string{ap.describe(q)}
	if q.Where != nil {
		parts = append(parts, fmt.Sprintf("Verify(%s)", q.Where))
	}
	if q.Join != nil {
		prefix := q.Join.Prefix
		if prefix == "" {
			prefix = q.Join.Class + "."
		}
		parts = append(parts, fmt.Sprintf("HashJoin(%s = %s%s)",
			q.Join.LeftAttr, prefix, q.Join.RightAttr))
	}
	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		aggs := make([]string, len(q.Aggs))
		for i, a := range q.Aggs {
			aggs[i] = a.name()
		}
		parts = append(parts, fmt.Sprintf("Group(by=%v aggs=%v)", q.GroupBy, aggs))
	}
	if q.OrderBy != "" {
		dir := "asc"
		if q.Desc {
			dir = "desc"
		}
		parts = append(parts, fmt.Sprintf("Sort(%s %s)", q.OrderBy, dir))
	}
	if q.Limit > 0 {
		parts = append(parts, fmt.Sprintf("Limit(%d)", q.Limit))
	}
	if len(q.Project) > 0 {
		parts = append(parts, fmt.Sprintf("Project(%v)", q.Project))
	}
	return strings.Join(parts, " -> ")
}
