package query

import (
	"bytes"
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

// The one value order is defined on event.Slot, the unboxed value a row
// that stays in the engine is made of (DESIGN.md "Rows without boxes"); a
// boxed value — a map row's, a predicate's literal, an index maintenance
// input — is viewed as a slot (event.SlotOf) first, which does not copy.

// normalize maps a slot to its canonical form, the one the order and the
// key encoding read: nil, bool, float64 or string.
func normalize(s event.Slot) event.Slot {
	switch s.Tag {
	case event.TagInt, event.TagInt8, event.TagInt16, event.TagInt32, event.TagInt64:
		return numSlot(float64(int64(s.Bits)))
	case event.TagUint, event.TagUint8, event.TagUint16, event.TagUint32, event.TagUint64, event.TagOID:
		return numSlot(float64(s.Bits))
	case event.TagFloat32:
		return numSlot(float64(math.Float32frombits(uint32(s.Bits))))
	}
	return s
}

func numSlot(f float64) event.Slot {
	return event.Slot{Tag: event.TagFloat64, Bits: math.Float64bits(f)}
}

// compareValues totally orders two values across kinds (null < bool <
// number < string), matching the key encoding's order so predicate
// evaluation and index scans agree. comparable=false only when either side
// is NaN, which is outside the order: equal to nothing.
func compareValues(a, b event.Slot) (rel int, comparable bool) {
	return compareNorm(normalize(a), normalize(b))
}

// compareNorm is compareValues on normalized slots.
func compareNorm(a, b event.Slot) (rel int, comparable bool) {
	ka, kb := kindOf(a.Tag), kindOf(b.Tag)
	if ka != kb {
		if ka < kb {
			return -1, true
		}
		return 1, true
	}
	switch ka {
	case kindBool:
		return int(a.Bits) - int(b.Bits), true
	case kindNum:
		fa, fb := math.Float64frombits(a.Bits), math.Float64frombits(b.Bits)
		switch {
		case math.IsNaN(fa) || math.IsNaN(fb):
			return 0, false
		case fa < fb:
			return -1, true
		case fa > fb:
			return 1, true
		}
	case kindStr:
		return bytes.Compare(a.Str, b.Str), true
	}
	return 0, true
}

// compareAny is compareValues on boxed values; comparable=false also when
// either is not atomic.
func compareAny(a, b any) (rel int, comparable bool) {
	sa, okA := event.SlotOf(a)
	sb, okB := event.SlotOf(b)
	if !okA || !okB {
		return 0, false
	}
	return compareValues(sa, sb)
}

// kindOf is the key kind of a normalized slot's tag.
func kindOf(tag byte) byte {
	switch tag {
	case event.TagBool:
		return kindBool
	case event.TagFloat64:
		return kindNum
	case event.TagString:
		return kindStr
	}
	return kindNull
}

// encodeKey renders a value as an order-preserving byte string: bytewise
// comparison of encodings matches compareValues. ok=false for a value that
// is not atomic.
func encodeKey(v any) ([]byte, bool) {
	s, ok := event.SlotOf(v)
	if !ok {
		return nil, false
	}
	return appendKey(make([]byte, 0, 9+len(s.Str)), s), true
}

// appendKey is encodeKey of a slot, appending to b.
func appendKey(b []byte, s event.Slot) []byte {
	s = normalize(s)
	switch s.Tag {
	case event.TagBool:
		return append(b, kindBool, byte(s.Bits))
	case event.TagFloat64:
		// IEEE-754 order fix: flip all bits of negatives, set the sign bit
		// of non-negatives; big-endian bytes then sort numerically.
		x := math.Float64frombits(s.Bits)
		if x == 0 {
			x = 0 // -0 compares equal to +0, so it must share its key
		}
		bits := math.Float64bits(x)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(append(b, kindNum), bits)
	case event.TagString:
		return append(append(b, kindStr), s.Str...)
	}
	return append(b, kindNull)
}
