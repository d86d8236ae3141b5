package query

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// oidIter is the one source. Its rows come from an extent scan, which
// reads the class's file a page at a time, or from an index's candidate
// OID list, loaded one by one through the directory (class and visibility
// checks happen in the load; stale candidates simply fail to load). Each
// row is re-verified against the query's Where.
//
// A row is decoded one of two ways. A row that stays in the engine (γ's
// input, a prepared probe) is a slot row: only the attributes in want,
// unboxed into slots, slot i holding want[i], checked by the Where bound
// to that layout. A row handed out (own) is decoded whole into a map it
// takes with it; a row the Where rejects leaves its map for the next.
type oidIter struct {
	m     *Manager
	tx    *txn.Txn
	scan  *object.ExtentScan // nil: the rows are oids'
	oids  []uint64
	pos   int
	own   bool
	where Pred           // own: checked on the map (nil: every row passes)
	row   map[string]any // own: the reused decode map; nil until the first load
	want  []string       // slot rows: the attributes decoded
	check bound          // slot rows: Where bound to want (nil: every row passes)
	slots []event.Slot   // slot rows: the current row
	strs  []byte         // slot rows: a directory load's string bytes
	cur   Row
	err   error
}

func (s *oidIter) Next() bool {
	for s.err == nil {
		oid, c, err := s.load()
		if oid == 0 {
			return false
		}
		if errors.Is(err, object.ErrUnknownObject) {
			s.m.rowsDropped.Add(1)
			continue
		}
		if err != nil {
			s.err = err
			return false
		}
		if !s.passes() {
			s.m.rowsDropped.Add(1)
			continue
		}
		s.cur = Row{OID: oid, Class: c.Name}
		if s.own {
			s.cur.Attrs, s.row = s.row, nil // handed out; the next load makes another
		}
		return true
	}
	return false
}

// passes reports whether the loaded row satisfies the Where.
func (s *oidIter) passes() bool {
	if s.own {
		return s.where == nil || s.where.Eval(s.row)
	}
	return s.check == nil || s.check.eval(s.slots)
}

// load decodes the next candidate; oid is 0 when the candidates are
// exhausted (or the scan failed, which s.err then says).
func (s *oidIter) load() (oid event.OID, c *object.Class, err error) {
	if s.scan != nil {
		if !s.scan.Next() {
			s.err = s.scan.Err()
			return 0, nil, nil
		}
		if s.own {
			s.row, err = s.scan.Attrs(s.row)
		} else {
			err = s.scan.Slots(s.want, s.slots)
		}
		return s.scan.OID(), s.scan.Class(), err
	}
	if s.pos == len(s.oids) {
		return 0, nil, nil
	}
	oid = event.OID(s.oids[s.pos])
	s.pos++
	if s.own {
		s.row, c, err = s.m.reg.LoadAttrs(s.tx, oid, s.row)
	} else {
		s.strs, c, err = s.m.reg.LoadSlots(s.tx, oid, s.want, s.slots, s.strs)
	}
	return oid, c, err
}

func (s *oidIter) Row() Row   { return s.cur }
func (s *oidIter) Err() error { return s.err }

// slotRow returns the current slot row.
func (s *oidIter) slotRow() []event.Slot { return s.slots }

// Close counts the pages an extent scan read.
func (s *oidIter) Close() {
	if s.scan != nil {
		s.m.pagesScanned.Add(uint64(s.scan.Pages()))
		s.scan = nil
	}
}

// ---- relational operators ---------------------------------------------

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
			rel, ok := compareAny(rows[i].Attrs[s.attr], rows[j].Attrs[s.attr])
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

// aggState is one aggregate of one group, fed normalized values.
type aggState struct {
	count uint64     // Count: non-nil values; Avg: numbers
	sum   float64    // Sum, Avg: of the numbers
	mm    event.Slot // Min, Max: the extreme so far, its string bytes its own
	hasMM bool
}

func (st *aggState) observe(op AggOp, v event.Slot) {
	if v.Tag == event.TagNil {
		return
	}
	n := normalize(v)
	switch op {
	case Count:
		st.count++
	case Sum, Avg:
		if n.Tag == event.TagFloat64 {
			st.sum += math.Float64frombits(n.Bits)
			st.count++
		}
	case Min, Max:
		if st.hasMM {
			rel, ok := compareNorm(n, st.mm)
			if !ok || rel == 0 || (rel < 0) != (op == Min) {
				return
			}
		}
		buf := st.mm.Str[:0] // n's bytes are the row's, which the next row reuses
		st.mm, st.hasMM = n, true
		st.mm.Str = append(buf, n.Str...)
	}
}

func (st *aggState) result(op AggOp) any {
	switch op {
	case Count:
		return float64(st.count)
	case Sum:
		return st.sum
	case Avg:
		if st.count == 0 {
			return nil
		}
		return st.sum / float64(st.count)
	case Min, Max:
		if st.hasMM {
			return st.mm.Box()
		}
	}
	return nil
}

// slotInput is γ's input: rows of slots, slot i holding the attribute
// names[i] of the layout γ was planned with.
type slotInput interface {
	Next() bool
	slotRow() []event.Slot
	Err() error
	Close()
}

// mapSlots feeds γ from an iterator of map rows (a join's output): each
// row's attributes are viewed as slots, nothing copied. Its values are
// decoded ones, so all atomic.
type mapSlots struct {
	Iterator
	names []string
	slots []event.Slot
}

func (m *mapSlots) slotRow() []event.Slot {
	attrs := m.Row().Attrs
	for i, name := range m.names {
		m.slots[i], _ = event.SlotOf(attrs[name])
	}
	return m.slots
}

// groupIter is γ: hash aggregation over the group-by attributes,
// streaming its input — each slot row is read in place and never kept.
// The group key is encoded from the slots into one reused buffer, and
// numbers are summed unboxed; a group's row map, which starts as its key
// values boxed, is built only when the group is first seen, so γ
// allocates per group, not per row. With no group-by columns it emits
// exactly one row (global aggregates).
type groupIter struct {
	in      slotInput
	groupBy []string
	keys    []int // the slot of each group-by column
	aggs    []Agg
	args    []int // the slot of each aggregate's attribute; -1: bare Count

	rows   []Row
	loaded bool
	pos    int
	err    error
}

// newGroupIter plans γ over in, whose slot i holds names[i]; names holds
// every group-by column and aggregate attribute.
func newGroupIter(in slotInput, names []string, groupBy []string, aggs []Agg) *groupIter {
	g := &groupIter{in: in, groupBy: groupBy, aggs: aggs, keys: make([]int, len(groupBy)), args: make([]int, len(aggs))}
	for i, col := range groupBy {
		g.keys[i] = slices.Index(names, col)
	}
	for i, a := range aggs {
		g.args[i] = -1
		if a.Attr != "" {
			g.args[i] = slices.Index(names, a.Attr)
		}
	}
	return g
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
		row := g.in.slotRow()
		key = key[:0]
		for _, i := range g.keys {
			key = append(appendKey(key, row[i]), 0xFD) // column separator
		}
		grp := groups[string(key)]
		if grp == nil {
			grp = &group{attrs: make(map[string]any, len(g.groupBy)+len(g.aggs)), states: make([]aggState, len(g.aggs))}
			for i, col := range g.groupBy {
				grp.attrs[col] = row[g.keys[i]].Box()
			}
			groups[string(key)] = grp
		}
		for i, a := range g.aggs {
			if j := g.args[i]; j >= 0 {
				grp.states[i].observe(a.Op, row[j])
			} else {
				grp.states[i].count++ // bare Count: every row
			}
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
			grp.attrs[a.name()] = grp.states[i].result(a.Op)
		}
		g.rows = append(g.rows, Row{Attrs: grp.attrs})
	}
	return true
}

func (g *groupIter) Row() Row   { return g.rows[g.pos-1] }
func (g *groupIter) Err() error { return g.err }
func (g *groupIter) Close()     {}
