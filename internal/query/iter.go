package query

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/event"
	"repro/internal/object"
	"repro/internal/txn"
)

// Row is one tuple flowing through an iterator tree. Source rows carry
// the object's identity; derived rows (aggregates) have OID 0. Every row a
// plan hands out owns its Attrs map.
type Row struct {
	OID   event.OID
	Class string
	Attrs map[string]any
}

// Iterator is the streaming Volcano-style cursor every operator exposes:
//
//	for it.Next() { use(it.Row()) }
//	if err := it.Err(); err != nil { ... }
//	it.Close()
//
// Next advances and reports whether a row is available; Row is valid
// until the next call to Next. Operators pull from their inputs one row
// at a time — only sort, group and the join build side materialize.
type Iterator interface {
	Next() bool
	Row() Row
	Err() error
	Close()
}

// Collect drains an iterator into a slice, closing it.
func Collect(it Iterator) ([]Row, error) {
	defer it.Close()
	var out []Row
	for it.Next() {
		out = append(out, it.Row())
	}
	return out, it.Err()
}

// ---- source iterators -------------------------------------------------

// oidIter is the one source: it loads a candidate OID list lazily and
// re-verifies each object against verify (class and visibility checks
// happen in the load; stale directory candidates simply fail to load or
// fail verification). It decodes the attributes in want (all when nil)
// into one reused map, so a row σ rejects builds no map. When the consumer
// hands rows out (own), a surviving row takes that map with it.
type oidIter struct {
	m      *Manager
	tx     *txn.Txn
	oids   []uint64
	verify Pred // may be nil: every loaded row passes
	want   []string
	own    bool
	row    map[string]any // the reused decode map; nil until the first load
	pos    int
	cur    Row
	err    error
}

func (s *oidIter) Next() bool {
	if s.err != nil {
		return false
	}
	for s.pos < len(s.oids) {
		oid := event.OID(s.oids[s.pos])
		s.pos++
		attrs, c, err := s.m.reg.LoadAttrs(s.tx, oid, s.want, s.row)
		if errors.Is(err, object.ErrUnknownObject) {
			s.m.rowsDropped.Add(1)
			continue
		}
		if err != nil {
			s.err = err
			return false
		}
		s.row = attrs
		if s.verify != nil && !s.verify.Eval(attrs) {
			s.m.rowsDropped.Add(1)
			continue
		}
		if s.own {
			s.row = nil // handed out with the row; the next load makes another
		}
		s.cur = Row{OID: oid, Class: c.Name, Attrs: attrs}
		return true
	}
	return false
}

func (s *oidIter) Row() Row   { return s.cur }
func (s *oidIter) Err() error { return s.err }
func (s *oidIter) Close()     {}

// ---- relational operators ---------------------------------------------

// selectIter is σ: rows passing the predicate.
type selectIter struct {
	in   Iterator
	pred Pred
	cur  Row
}

func (s *selectIter) Next() bool {
	for s.in.Next() {
		r := s.in.Row()
		if s.pred == nil || s.pred.Eval(r.Attrs) {
			s.cur = r
			return true
		}
	}
	return false
}

func (s *selectIter) Row() Row   { return s.cur }
func (s *selectIter) Err() error { return s.in.Err() }
func (s *selectIter) Close()     { s.in.Close() }

// projectIter is π: rows narrowed to the named attributes.
type projectIter struct {
	in   Iterator
	cols []string
	cur  Row
}

func (p *projectIter) Next() bool {
	if !p.in.Next() {
		return false
	}
	r := p.in.Row()
	attrs := make(map[string]any, len(p.cols))
	for _, c := range p.cols {
		if v, ok := r.Attrs[c]; ok {
			attrs[c] = v
		}
	}
	p.cur = Row{OID: r.OID, Class: r.Class, Attrs: attrs}
	return true
}

func (p *projectIter) Row() Row   { return p.cur }
func (p *projectIter) Err() error { return p.in.Err() }
func (p *projectIter) Close()     { p.in.Close() }

// limitIter stops after n rows (n <= 0: unlimited is handled by the
// planner never inserting the operator).
type limitIter struct {
	in   Iterator
	n    int
	seen int
}

func (l *limitIter) Next() bool {
	if l.seen >= l.n {
		return false
	}
	if !l.in.Next() {
		return false
	}
	l.seen++
	return true
}

func (l *limitIter) Row() Row   { return l.in.Row() }
func (l *limitIter) Err() error { return l.in.Err() }
func (l *limitIter) Close()     { l.in.Close() }

// sortIter materializes its input and emits it ordered by attr (cross-
// type order as compareValues; ties broken by OID for determinism).
type sortIter struct {
	in     Iterator
	attr   string
	desc   bool
	rows   []Row
	loaded bool
	pos    int
	err    error
}

func (s *sortIter) Next() bool {
	if !s.loaded {
		s.loaded = true
		rows, err := Collect(s.in)
		if err != nil {
			s.err = err
			return false
		}
		sort.SliceStable(rows, func(i, j int) bool {
			rel, ok := compareValues(rows[i].Attrs[s.attr], rows[j].Attrs[s.attr])
			if !ok || rel == 0 {
				return rows[i].OID < rows[j].OID
			}
			if s.desc {
				return rel > 0
			}
			return rel < 0
		})
		s.rows = rows
	}
	if s.pos < len(s.rows) {
		s.pos++
		return true
	}
	return false
}

func (s *sortIter) Row() Row   { return s.rows[s.pos-1] }
func (s *sortIter) Err() error { return s.err }
func (s *sortIter) Close()     {}

// hashJoinIter is ⋈: equi-join, right side built into a hash table keyed
// by the canonical key encoding, left side probed streaming. Matched
// right-row attributes are merged into the output under prefix+name, so
// the two sides never collide.
type hashJoinIter struct {
	left      Iterator
	right     Iterator
	leftAttr  string
	rightAttr string
	prefix    string

	built   bool
	table   map[string][]Row
	pending []Row // right matches for the current left row
	leftRow Row
	cur     Row
	err     error
}

func (j *hashJoinIter) build() bool {
	j.built = true
	rows, err := Collect(j.right)
	if err != nil {
		j.err = err
		return false
	}
	j.table = make(map[string][]Row)
	for _, r := range rows {
		key, ok := encodeKey(r.Attrs[j.rightAttr])
		if !ok {
			continue
		}
		j.table[string(key)] = append(j.table[string(key)], r)
	}
	return true
}

func (j *hashJoinIter) Next() bool {
	if j.err != nil {
		return false
	}
	if !j.built && !j.build() {
		return false
	}
	for {
		if len(j.pending) > 0 {
			r := j.pending[0]
			j.pending = j.pending[1:]
			attrs := make(map[string]any, len(j.leftRow.Attrs)+len(r.Attrs))
			for k, v := range j.leftRow.Attrs {
				attrs[k] = v
			}
			for k, v := range r.Attrs {
				attrs[j.prefix+k] = v
			}
			j.cur = Row{OID: j.leftRow.OID, Class: j.leftRow.Class, Attrs: attrs}
			return true
		}
		if !j.left.Next() {
			return false
		}
		j.leftRow = j.left.Row()
		key, ok := encodeKey(j.leftRow.Attrs[j.leftAttr])
		if !ok {
			continue
		}
		j.pending = j.table[string(key)]
	}
}

func (j *hashJoinIter) Row() Row   { return j.cur }
func (j *hashJoinIter) Err() error { return j.err }
func (j *hashJoinIter) Close()     { j.left.Close() }

// ---- grouping / aggregation -------------------------------------------

// AggOp is an aggregate function.
type AggOp uint8

const (
	Count AggOp = iota + 1
	Sum
	Min
	Max
	Avg
)

func (op AggOp) String() string {
	switch op {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	}
	return fmt.Sprintf("agg(%d)", uint8(op))
}

// Agg is one aggregate column: Op over Attr, emitted as As (default
// "op_attr", or "count" for bare Count).
type Agg struct {
	Op   AggOp
	Attr string
	As   string
}

func (a Agg) name() string {
	if a.As != "" {
		return a.As
	}
	if a.Op == Count && a.Attr == "" {
		return "count"
	}
	return a.Op.String() + "_" + a.Attr
}

type aggState struct {
	count   uint64 // rows with a usable value (all rows, for bare Count)
	sum     float64
	numeric bool
	min     any
	max     any
	hasMM   bool
}

func (st *aggState) observe(a Agg, attrs map[string]any) {
	if a.Op == Count && a.Attr == "" {
		st.count++
		return
	}
	v, ok := attrs[a.Attr]
	if !ok || v == nil {
		return
	}
	n, ok := normalize(v)
	if !ok {
		return
	}
	st.count++
	if f, isNum := n.(float64); isNum {
		st.numeric = true
		st.sum += f
	}
	if !st.hasMM {
		st.min, st.max, st.hasMM = n, n, true
		return
	}
	if rel, ok := compareValues(n, st.min); ok && rel < 0 {
		st.min = n
	}
	if rel, ok := compareValues(n, st.max); ok && rel > 0 {
		st.max = n
	}
}

func (st *aggState) result(a Agg) any {
	switch a.Op {
	case Count:
		return float64(st.count)
	case Sum:
		return st.sum
	case Avg:
		if st.count == 0 {
			return nil
		}
		return st.sum / float64(st.count)
	case Min:
		return st.min
	case Max:
		return st.max
	}
	return nil
}

// groupIter is γ: hash aggregation over the group-by attributes,
// streaming its input — the input row is read in place and never kept. The
// group key is encoded into one reused buffer; a group's row map, which
// starts as its key values, is built only when the group is first seen.
// With no group-by columns it emits exactly one row (global aggregates).
type groupIter struct {
	in      Iterator
	groupBy []string
	aggs    []Agg

	rows   []Row
	loaded bool
	pos    int
	err    error
}

func (g *groupIter) Next() bool {
	if !g.loaded {
		g.loaded = true
		if !g.aggregate() {
			return false
		}
	}
	if g.pos < len(g.rows) {
		g.pos++
		return true
	}
	return false
}

func (g *groupIter) aggregate() bool {
	type group struct {
		attrs  map[string]any // the key values, then the results
		states []aggState
	}
	defer g.in.Close()
	groups := make(map[string]*group)
	var key []byte
	for g.in.Next() {
		attrs := g.in.Row().Attrs
		key = key[:0]
		for _, col := range g.groupBy {
			var ok bool
			if key, ok = appendKey(key, attrs[col]); !ok {
				key = append(key, 0xFE) // ungroupable values form their own bucket kind
			}
			key = append(key, 0xFD) // column separator
		}
		grp := groups[string(key)]
		if grp == nil {
			grp = &group{attrs: make(map[string]any, len(g.groupBy)+len(g.aggs)), states: make([]aggState, len(g.aggs))}
			for _, col := range g.groupBy {
				grp.attrs[col] = attrs[col]
			}
			groups[string(key)] = grp
		}
		for i, a := range g.aggs {
			grp.states[i].observe(a, attrs)
		}
	}
	if g.err = g.in.Err(); g.err != nil {
		return false
	}
	if len(g.groupBy) == 0 && len(groups) == 0 {
		// Global aggregate over an empty input still yields one row.
		groups[""] = &group{attrs: make(map[string]any, len(g.aggs)), states: make([]aggState, len(g.aggs))}
	}
	order := make([]string, 0, len(groups))
	for k := range groups {
		order = append(order, k)
	}
	sort.Strings(order) // deterministic group order (encoded-key order)
	for _, k := range order {
		grp := groups[k]
		for i, a := range g.aggs {
			grp.attrs[a.name()] = grp.states[i].result(a)
		}
		g.rows = append(g.rows, Row{Attrs: grp.attrs})
	}
	return true
}

func (g *groupIter) Row() Row   { return g.rows[g.pos-1] }
func (g *groupIter) Err() error { return g.err }
func (g *groupIter) Close()     {}
