package query

import (
	"encoding/binary"
	"math"

	"repro/internal/event"
)

// Index keys use an order-preserving byte encoding so the ordered index
// can answer range scans with plain bytewise comparison. A one-byte type
// tag totally orders across types (null < bool < number < string); all
// numeric Go types, and event.OID, normalize to float64 so 3, int64(3),
// 3.0 and OID 3 index and probe identically.
const (
	kindNull byte = 0x00
	kindBool byte = 0x01
	kindNum  byte = 0x02
	kindStr  byte = 0x03
)

// normalize converts any supported attribute value to its canonical
// comparable form: nil, bool, float64 or string. ok=false for values the
// index cannot key (maps, slices, structs...). A value already canonical
// comes back as the same interface, so the common case never allocates.
func normalize(v any) (any, bool) {
	switch x := v.(type) {
	case nil, bool, float64, string:
		return v, true
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
	case event.OID:
		return float64(x), true
	case float32:
		return float64(x), true
	}
	return nil, false
}

// compareValues totally orders two normalized-comparable values.
// comparable=false when either side fails to normalize or the sides are
// different kinds except through the cross-type kind order, which IS
// comparable (null < bool < number < string) — matching key-encoding
// order so predicate Eval and index scans agree.
func compareValues(a, b any) (rel int, comparable bool) {
	na, okA := normalize(a)
	nb, okB := normalize(b)
	if !okA || !okB {
		return 0, false
	}
	ka, kb := kindOf(na), kindOf(nb)
	if ka != kb {
		if ka < kb {
			return -1, true
		}
		return 1, true
	}
	switch ka {
	case kindNull:
		return 0, true
	case kindBool:
		ba, bb := na.(bool), nb.(bool)
		if ba == bb {
			return 0, true
		}
		if !ba {
			return -1, true
		}
		return 1, true
	case kindNum:
		fa, fb := na.(float64), nb.(float64)
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return 0, false // NaN is outside the order: equal to nothing
		}
		if fa < fb {
			return -1, true
		}
		if fa > fb {
			return 1, true
		}
		return 0, true
	case kindStr:
		sa, sb := na.(string), nb.(string)
		if sa < sb {
			return -1, true
		}
		if sa > sb {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func kindOf(normalized any) byte {
	switch normalized.(type) {
	case nil:
		return kindNull
	case bool:
		return kindBool
	case float64:
		return kindNum
	case string:
		return kindStr
	}
	return 0xFF
}

// encodeKey renders a normalized-comparable value as an order-preserving
// byte string: bytewise comparison of encodings matches compareValues.
// ok=false for unindexable values.
func encodeKey(v any) ([]byte, bool) {
	n := 9 // a number's key; a string's is one byte more than the string
	if s, ok := v.(string); ok {
		n = 1 + len(s)
	}
	return appendKey(make([]byte, 0, n), v)
}

// appendKey is encodeKey appending to b; b comes back unchanged when v is
// unindexable.
func appendKey(b []byte, v any) ([]byte, bool) {
	n, ok := normalize(v)
	if !ok {
		return b, false
	}
	switch x := n.(type) {
	case nil:
		return append(b, kindNull), true
	case bool:
		if x {
			return append(b, kindBool, 1), true
		}
		return append(b, kindBool, 0), true
	case float64:
		// IEEE-754 order fix: flip all bits of negatives, set the sign bit
		// of non-negatives; big-endian bytes then sort numerically.
		if x == 0 {
			x = 0 // -0 compares equal to +0, so it must share its key
		}
		bits := math.Float64bits(x)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(append(b, kindNum), bits), true
	case string:
		return append(append(b, kindStr), x...), true
	}
	return b, false
}
