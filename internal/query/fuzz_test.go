package query

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/event"
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
		rel, comparable := compareValues(a, b)
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
