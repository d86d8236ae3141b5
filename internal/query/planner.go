package query

import (
	"fmt"
	"strings"

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

// accessPlan is the bound leaf of a compiled query.
type accessPlan struct {
	mode  accessMode
	ix    *index
	eqKey []byte
	lo    []byte // [lo, hi) over the ordered directory; nil = open
	hi    []byte
	desc  string
}

// chooseAccess binds the best index to Where's conjuncts: an equality
// conjunct on a hash or ordered index beats a range; range conjuncts on
// one attribute merge into a single ordered-index scan interval.
func (m *Manager) chooseAccess(q Q) accessPlan {
	ext := accessPlan{mode: accessExtent, desc: extentDesc(q)}
	if q.Subclasses || q.Class == "" {
		return ext
	}
	var bounds []indexBound
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
		return accessPlan{
			mode: accessProbe, ix: ix, eqKey: key,
			desc: fmt.Sprintf("IndexProbe(%s = %v)", ix.def, b.eqVal),
		}
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
		var loDesc, hiDesc []string
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
				loDesc = append(loDesc, fmt.Sprintf("%s %v", relDesc(o.loInc, ">="), o.lo))
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
				hiDesc = append(hiDesc, fmt.Sprintf("%s %v", relDesc(o.hiInc, "<="), o.hi))
			}
		}
		if !ok || (lo == nil && hi == nil) {
			continue
		}
		return accessPlan{
			mode: accessRange, ix: ix, lo: lo, hi: hi,
			desc: fmt.Sprintf("IndexRange(%s %s)", ix.def,
				strings.Join(append(loDesc, hiDesc...), " and ")),
		}
	}
	return ext
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

func extentDesc(q Q) string {
	if q.Subclasses {
		return fmt.Sprintf("ExtentScan(%s+subclasses)", q.Class)
	}
	return fmt.Sprintf("ExtentScan(%s)", q.Class)
}

// source builds the leaf iterator for q and bumps the matching counter.
// The FULL Where re-evaluates on every loaded row — index candidates are
// optimistic supersets, so pushdown only narrows, never decides. γ (with
// no join in between) reads only the referenced attributes, in place;
// every other consumer gets whole rows of its own.
func (m *Manager) source(tx *txn.Txn, q Q) (Iterator, string) {
	ap := m.chooseAccess(q)
	it := &oidIter{m: m, tx: tx, verify: q.Where}
	switch ap.mode {
	case accessProbe:
		m.probes.Add(1)
		it.oids = ap.ix.eqCandidates(ap.eqKey)
	case accessRange:
		m.rangeScans.Add(1)
		it.oids = ap.ix.rangeCandidates(ap.lo, ap.hi)
	default:
		m.extentScans.Add(1)
		ext := m.reg.ExtentOIDs(q.Class, q.Subclasses)
		it.oids = make([]uint64, len(ext))
		for i, oid := range ext {
			it.oids[i] = uint64(oid)
		}
	}
	if q.Join == nil && (len(q.GroupBy) > 0 || len(q.Aggs) > 0) {
		it.want = referenced(q)
	} else {
		it.own = true
	}
	return it, ap.desc
}

// referenced returns the attributes q's Where, group keys and aggregates
// read, or nil — every attribute — when Where cannot be seen into.
func referenced(q Q) []string {
	attrs := make(map[string]struct{}, len(q.GroupBy)+len(q.Aggs)+2)
	if !predAttrs(q.Where, attrs) {
		return nil
	}
	for _, col := range q.GroupBy {
		attrs[col] = struct{}{}
	}
	for _, a := range q.Aggs {
		if a.Attr != "" {
			attrs[a.Attr] = struct{}{}
		}
	}
	names := make([]string, 0, len(attrs)) // non-nil even when empty: read nothing
	for a := range attrs {
		names = append(names, a)
	}
	return names
}

// Plan compiles q into an iterator tree over tx's view of the store
// (snapshot when armed, 2PL reads otherwise). A locked query locks its
// extent first (object.Registry.LockExtent), whatever access path it takes:
// index candidates are re-verified against the extent, and a create of the
// class must not slip in behind them.
func (m *Manager) Plan(tx *txn.Txn, q Q) (Iterator, error) {
	if q.Class == "" {
		return nil, fmt.Errorf("query: class required")
	}
	if _, err := m.reg.Class(q.Class); err != nil {
		return nil, err
	}
	if err := m.reg.LockExtent(tx, q.Class, q.Subclasses, lockmgr.Shared); err != nil {
		return nil, err
	}
	it, _ := m.source(tx, q)
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
	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		it = &groupIter{in: it, groupBy: q.GroupBy, aggs: q.Aggs}
	}
	if q.OrderBy != "" {
		it = &sortIter{in: it, attr: q.OrderBy, desc: q.Desc}
	}
	if q.Limit > 0 {
		it = &limitIter{in: it, n: q.Limit}
	}
	if len(q.Project) > 0 {
		it = &projectIter{in: it, cols: q.Project}
	}
	return it, nil
}

// Run compiles and drains q.
func (m *Manager) Run(tx *txn.Txn, q Q) ([]Row, error) {
	it, err := m.Plan(tx, q)
	if err != nil {
		return nil, err
	}
	return Collect(it)
}

// Exists reports whether any object of class satisfies pred — the
// evaluation primitive behind indexed rule conditions. It stops at the
// first verified row.
func (m *Manager) Exists(tx *txn.Txn, class string, subclasses bool, pred Pred) (bool, error) {
	it, err := m.Plan(tx, Q{Class: class, Subclasses: subclasses, Where: pred, Limit: 1})
	if err != nil {
		return false, err
	}
	defer it.Close()
	ok := it.Next()
	return ok, it.Err()
}

// Explain renders the plan the compiler would pick, without running it.
func (m *Manager) Explain(q Q) string {
	ap := m.chooseAccess(q)
	parts := []string{ap.desc}
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
