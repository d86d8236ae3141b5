package query

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/event"
	"repro/internal/object"
)

// fuzzValue builds one value of the key domain (null < bool < number <
// string, where a number is a float64 or an event.OID taking f's bits)
// from fuzzer-chosen parts.
func fuzzValue(kind uint8, f float64, s string) any {
	switch kind % 5 {
	case 0:
		return nil
	case 1:
		return f != 0
	case 2:
		return f
	case 4:
		return event.OID(math.Float64bits(f))
	}
	return s
}

// FuzzKeyOrder: the key encoding preserves the value order the predicates
// use — a < b ⇔ enc(a) < enc(b) bytewise, a = b ⇔ equal bytes — so an
// ordered-index range scan and a predicate evaluation always agree. NaN is
// outside the order (comparable with nothing) and only has to encode.
func FuzzKeyOrder(f *testing.F) {
	f.Add(uint8(2), 0.0, "", uint8(2), math.Copysign(0, -1), "")
	f.Add(uint8(2), math.Inf(-1), "", uint8(2), -math.MaxFloat64, "")
	f.Add(uint8(2), math.NaN(), "", uint8(2), 1.0, "")
	f.Add(uint8(2), 5e-324, "", uint8(2), -5e-324, "")
	f.Add(uint8(3), 0.0, "a", uint8(3), 0.0, "a\x00")
	f.Add(uint8(1), 1.0, "", uint8(0), 0.0, "")
	f.Add(uint8(3), 0.0, "", uint8(2), math.Inf(1), "")
	f.Add(uint8(4), math.Float64frombits(3), "", uint8(2), 3.0, "")
	f.Add(uint8(4), math.Float64frombits(1<<53+1), "", uint8(4), math.Float64frombits(1<<53), "")
	f.Fuzz(func(t *testing.T, ka uint8, fa float64, sa string, kb uint8, fb float64, sb string) {
		a, b := fuzzValue(ka, fa, sa), fuzzValue(kb, fb, sb)
		ea, okA := encodeKey(a)
		eb, okB := encodeKey(b)
		if !okA || !okB {
			t.Fatalf("encodeKey(%#v)=%v encodeKey(%#v)=%v", a, okA, b, okB)
		}
		rel, comparable := compareAny(a, b)
		if !comparable {
			if !(ka%5 == 2 && math.IsNaN(fa)) && !(kb%5 == 2 && math.IsNaN(fb)) {
				t.Fatalf("%#v and %#v not comparable", a, b)
			}
			return
		}
		if got := bytes.Compare(ea, eb); got != rel {
			t.Fatalf("%#v vs %#v: values compare %d, keys %x vs %x compare %d", a, b, rel, ea, eb, got)
		}
	})
}

// fuzzInput hands out fuzzer bytes as typed choices; past the end every
// choice is zero.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

func (in *fuzzInput) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(in.byte()) << (8 * i)
	}
	return v
}

// small is a number in [-2, 2] — so groups and comparisons collide — or,
// rarely, any 64-bit pattern.
func (in *fuzzInput) small() int64 {
	if c := in.byte(); c < 250 {
		return int64(c%5) - 2
	}
	return int64(in.u64())
}

// value draws from the codec's whole atomic set, NaN and -0 included.
func (in *fuzzInput) value() any {
	n := in.small()
	switch in.byte() % 16 {
	case 0:
		return nil
	case 1:
		return n > 0
	case 2:
		return int(n)
	case 3:
		return int8(n)
	case 4:
		return int16(n)
	case 5:
		return int32(n)
	case 6:
		return n
	case 7:
		return uint(n)
	case 8:
		return uint8(n)
	case 9:
		return uint16(n)
	case 10:
		return uint32(n)
	case 11:
		return uint64(n)
	case 12:
		return float32(n) / 2
	case 13:
		return [...]float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), float64(n) / 2}[in.byte()%4]
	case 14:
		return [...]string{"", "a", "ab", "b", "\x00"}[in.byte()%5]
	}
	return event.OID(n & 7)
}

// fuzzNames are the attribute names records may carry; "zz" never occurs
// in a record, so predicates and groups also see absent attributes.
var fuzzNames = [...]string{"a", "b", "c", "d", "zz"}

func (in *fuzzInput) name() string { return fuzzNames[in.byte()%byte(len(fuzzNames))] }

func (in *fuzzInput) pred(depth int) Pred {
	k := in.byte() % 8
	if depth >= 3 || k < 5 {
		return newCmp(in.name(), cmpOp(1+in.byte()%6), in.value())
	}
	switch k {
	case 5:
		return And(in.pred(depth+1), in.pred(depth+1))
	case 6:
		return Or(in.pred(depth+1), in.pred(depth+1))
	}
	return Not(in.pred(depth + 1))
}

// sameValue is == with NaN equal to itself and floats compared bitwise.
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case float32:
		y, ok := b.(float32)
		return ok && math.Float32bits(x) == math.Float32bits(y)
	}
	return a == b
}

func sameAttrs(a, b map[string]any) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !sameValue(v, w) {
			return false
		}
	}
	return true
}

// collectThenGroup is the reference γ: the whole input collected first as
// full map rows, each row's group key built afresh from its boxed values,
// and each aggregate computed from the group's rows afterwards (refAgg).
func collectThenGroup(in []Row, groupBy []string, aggs []Agg) []Row {
	type group struct {
		keyAttrs map[string]any
		rows     []map[string]any
	}
	groups := map[string]*group{}
	var order []string
	for _, r := range in {
		var key []byte
		keyAttrs := map[string]any{}
		for _, col := range groupBy {
			kb, ok := encodeKey(r.Attrs[col])
			if !ok {
				kb = []byte{0xFE}
			}
			key = append(append(key, kb...), 0xFD)
			keyAttrs[col] = r.Attrs[col]
		}
		grp := groups[string(key)]
		if grp == nil {
			grp = &group{keyAttrs: keyAttrs}
			groups[string(key)] = grp
			order = append(order, string(key))
		}
		grp.rows = append(grp.rows, r.Attrs)
	}
	if len(groupBy) == 0 && len(order) == 0 {
		groups[""] = &group{keyAttrs: map[string]any{}}
		order = append(order, "")
	}
	sort.Strings(order)
	var out []Row
	for _, k := range order {
		attrs := map[string]any{}
		for col, v := range groups[k].keyAttrs {
			attrs[col] = v
		}
		for _, a := range aggs {
			attrs[a.name()] = refAgg(a, groups[k].rows)
		}
		out = append(out, Row{Attrs: attrs})
	}
	return out
}

// refAgg is one aggregate over a group's rows by its definition: Count
// counts rows (bare) or non-nil values; Sum adds the numbers (0 for none);
// Avg is their mean (nil for none); Min and Max keep the first non-nil
// value and replace it by each later one strictly beyond it in the value
// order (a NaN is beyond nothing), as a canonical value.
func refAgg(a Agg, rows []map[string]any) any {
	if a.Op == Count && a.Attr == "" {
		return float64(len(rows))
	}
	var vals []any
	for _, r := range rows {
		if v := r[a.Attr]; v != nil {
			vals = append(vals, v)
		}
	}
	switch a.Op {
	case Count:
		return float64(len(vals))
	case Sum, Avg:
		sum, n := 0.0, 0
		for _, v := range vals {
			if f, ok := number(v); ok {
				sum += f
				n++
			}
		}
		if a.Op == Sum {
			return sum
		}
		if n == 0 {
			return nil
		}
		return sum / float64(n)
	}
	var best any
	for i, v := range vals {
		if i == 0 {
			best = v
			continue
		}
		if rel, ok := compareAny(v, best); ok && (a.Op == Min && rel < 0 || a.Op == Max && rel > 0) {
			best = v
		}
	}
	if f, ok := number(best); ok {
		return f
	}
	return best
}

// number is a numeric value (an OID included) as a float64.
func number(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int8:
		return float64(x), true
	case int16:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint:
		return float64(x), true
	case uint8:
		return float64(x), true
	case uint16:
		return float64(x), true
	case uint32:
		return float64(x), true
	case uint64:
		return float64(x), true
	case float32:
		return float64(x), true
	case float64:
		return x, true
	case event.OID:
		return float64(x), true
	}
	return 0, false
}

// Seed values for FuzzReferencedDecode, in the bytes fuzzInput.value
// reads: the small number (k+2 is k), the kind, and a kind's extra choice.
func seedInt(k int) []byte  { return []byte{byte(k + 2), 2} }
func seedInt8(k int) []byte { return []byte{byte(k + 2), 3} }
func seedOID(k int) []byte  { return []byte{byte(k + 2), 15} } // k in 0..2
func seedStr(i int) []byte  { return []byte{0, 14, byte(i)} }  // "", "a", "ab", "b", "\x00"

var (
	seedNaN     = []byte{0, 13, 0}
	seedNegZero = []byte{0, 13, 1}
	seedZero    = []byte{2, 13, 3} // float64(0)/2
)

// fuzzSeed lays out a FuzzReferencedDecode input: records carrying all
// four attributes, the Where's bytes (one byte 0 mod 4: none), the
// group-by pick, the aggregates' bytes (count, then op and name each) and
// the transaction choice (0 locked, 1 snapshot).
func fuzzSeed(recs [][4][]byte, where []byte, groupBy byte, aggs []byte, snap byte) []byte {
	b := []byte{byte(len(recs) - 1)}
	for _, r := range recs {
		b = append(b, 0x0F)
		for _, v := range r {
			b = append(b, v...)
		}
	}
	b = append(b, where...)
	b = append(append(b, groupBy), aggs...)
	return append(b, snap)
}

// FuzzReferencedDecode: decoding only the attributes a plan references,
// into slots, is indistinguishable from decoding the whole record into a
// map. Over random records (every atomic type, NaN, -0, OIDs, absent
// names), random predicate trees and random group-by/aggregate sets it
// checks that each slot boxes to the Load value with its Go type and that
// σ on the slot row agrees with σ on the Load map, through the directory
// (LoadSlots) and through the extent scan; that a scan returns exactly the
// objects whose full map passes, whole; and that streaming γ equals
// collecting every passing row's full map and grouping afterwards.
func FuzzReferencedDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0xFF, 1, 13, 0, 2, 14, 1, 0xFF, 4, 6, 0, 1, 2, 3, 5, 1, 1, 2, 0, 3})
	f.Add([]byte{7, 0x0F, 3, 13, 0, 4, 8, 2, 12, 9, 15, 5, 6, 7, 1, 13, 2, 2, 0x03, 0x13, 0x21})
	f.Add([]byte{2, 0x1F, 255, 1, 2, 3, 4, 5, 6, 7, 8, 11, 1, 7, 13, 0, 8, 2, 0x0C, 3, 4, 5})
	// Group keys that are ints, int8s and OIDs, strings under a Where.
	f.Add(fuzzSeed([][4][]byte{
		{seedInt(-1), seedInt8(1), seedOID(2), seedStr(1)},
		{seedInt(-1), seedInt8(1), seedOID(2), seedStr(2)},
		{seedInt(2), seedInt8(-2), seedOID(0), seedStr(0)},
		{seedInt(2), seedInt8(-2), seedOID(1), seedStr(3)},
		{seedInt(0), seedInt8(1), seedOID(2), seedStr(4)},
		{seedInt(-1), seedInt8(1), seedOID(2), seedStr(2)},
	}, []byte{1, 0, 3, 1, 0, 14, 0}, 0x07, []byte{3, 1, 0, 4, 2, 2, 3}, 0))
	// Group keys that are -0, 0 and NaN floats and strings.
	f.Add(fuzzSeed([][4][]byte{
		{seedInt(1), seedInt8(0), seedNegZero, seedStr(1)},
		{seedInt(2), seedInt8(1), seedZero, seedStr(1)},
		{seedInt(0), seedInt8(2), seedNaN, seedStr(0)},
		{seedInt(1), seedInt8(0), seedNaN, seedStr(1)},
		{seedInt(-2), seedInt8(-1), seedNegZero, seedStr(0)},
	}, []byte{0}, 0x0C, []byte{3, 2, 2, 3, 2, 4, 2}, 1))
	dir := f.TempDir()
	var e *env
	f.Cleanup(func() {
		if e != nil {
			e.close()
		}
	})
	classes := 0
	f.Fuzz(func(t *testing.T, data []byte) {
		if e == nil {
			e = openEnv(t, dir)
		}
		e.t = t
		in := &fuzzInput{b: data}
		classes++
		class := fmt.Sprintf("F%d", classes)
		e.mustClass(class, "")

		tx := e.begin()
		for n := 1 + in.byte()%8; n > 0; n-- {
			attrs := map[string]any{}
			present := in.byte()
			for i, name := range fuzzNames[:4] {
				if present&(1<<i) != 0 {
					attrs[name] = in.value()
				}
			}
			if _, err := e.reg.New(tx, class, attrs); err != nil {
				t.Fatal(err)
			}
		}
		e.commit(tx)

		var where Pred
		if in.byte()%4 != 0 {
			where = in.pred(0)
		}
		var groupBy []string
		for i, pick := 0, in.byte(); i < len(fuzzNames); i++ {
			if pick&(1<<i) != 0 {
				groupBy = append(groupBy, fuzzNames[i])
			}
		}
		aggs := []Agg{{Op: Count}}
		for n := in.byte() % 4; n > 0; n-- {
			aggs = append(aggs, Agg{Op: AggOp(1 + in.byte()%5), Attr: in.name(), As: fmt.Sprintf("x%d", n)})
		}

		if in.byte()%2 == 0 {
			tx = e.begin()
		} else if tx, _ = e.tm.BeginSnapshot(); tx == nil {
			t.Fatal("no snapshot")
		}
		defer func() { _ = tx.Commit() }()

		// σ on the slot row agrees with σ on the full map, and every slot
		// boxes to the full decode's value.
		want := referenced(Q{Where: where, GroupBy: groupBy, Aggs: aggs})
		check := bindPred(where, want)
		slots := make([]event.Slot, len(want))
		checkRow := func(how string, inst *object.Instance) bool {
			full := inst.Attrs()
			for i, name := range want {
				if got := slots[i].Box(); !sameValue(got, full[name]) {
					t.Fatalf("%v: %s slot %s boxes to %#v, full decode %#v", inst.OID, how, name, got, full[name])
				}
			}
			if where == nil {
				return true
			}
			got, exp := check.eval(slots), where.Eval(full)
			if got != exp {
				t.Fatalf("%v: %s is %v on the %s slot row %v but %v on the full record %v", inst.OID, where, got, how, slots, exp, full)
			}
			return exp
		}
		full := map[event.OID]*object.Instance{}
		scan := e.reg.ScanExtent(tx, class, false)
		for scan.Next() {
			inst, err := e.reg.Load(tx, scan.OID())
			if err != nil {
				t.Fatal(err)
			}
			if err := scan.Slots(want, slots); err != nil {
				t.Fatal(err)
			}
			checkRow("scanned", inst)
			full[inst.OID] = inst
		}
		if err := scan.Err(); err != nil {
			t.Fatal(err)
		}
		var oids []event.OID
		for oid := range full {
			oids = append(oids, oid)
		}
		sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
		var rowsPassing []Row
		var pass []uint64
		var buf []byte
		for _, oid := range oids {
			var err error
			if buf, _, err = e.reg.LoadSlots(tx, oid, want, slots, buf); err != nil {
				t.Fatal(err)
			}
			if checkRow("loaded", full[oid]) {
				pass = append(pass, uint64(oid))
				rowsPassing = append(rowsPassing, Row{OID: oid, Attrs: full[oid].Attrs()})
			}
		}

		// A scan hands out exactly the passing objects, whole (in page
		// order, which Q does not promise to be OID order).
		rows, err := e.qm.Run(tx, Q{Class: class, Where: where})
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].OID < rows[j].OID })
		if got := rowOIDs(rows); fmt.Sprint(got) != fmt.Sprint(pass) {
			t.Fatalf("scan %s returned %v, want %v", where, got, pass)
		}
		for i, r := range rows {
			if !sameAttrs(r.Attrs, rowsPassing[i].Attrs) {
				t.Fatalf("scan row %v = %v, full record %v", r.OID, r.Attrs, rowsPassing[i].Attrs)
			}
		}

		// Streaming γ equals collect-then-group.
		got, err := e.qm.Run(tx, Q{Class: class, Where: where, GroupBy: groupBy, Aggs: aggs})
		if err != nil {
			t.Fatal(err)
		}
		exp := collectThenGroup(rowsPassing, groupBy, aggs)
		if len(got) != len(exp) {
			t.Fatalf("γ by %v: %d groups, reference %d\n got %v\nwant %v", groupBy, len(got), len(exp), got, exp)
		}
		for i := range got {
			if !sameAttrs(got[i].Attrs, exp[i].Attrs) {
				t.Fatalf("γ by %v group %d: %v, reference %v", groupBy, i, got[i].Attrs, exp[i].Attrs)
			}
		}
	})
}
