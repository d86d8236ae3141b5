package event

import (
	"math"
	"unsafe"
)

// Slot is one atomic value without a box: its tag, a 64-bit payload and,
// for a string, its bytes. The payload holds a bool as 0 or 1, a signed
// integer sign-extended, an unsigned one or an OID as is, and a float as
// its IEEE-754 bits (a float32's in the low 32). The zero Slot is nil.
//
// A query row that never leaves the engine is an array of slots
// (DESIGN.md "Rows without boxes"); only a value that leaves it is boxed,
// by Box.
type Slot struct {
	Tag  byte
	Bits uint64
	Str  []byte
}

// Box returns the value as Reader.Value returns it, with the same Go type.
// A string is copied out of the bytes the slot views.
func (s Slot) Box() any {
	switch s.Tag {
	case TagBool:
		return s.Bits != 0
	case TagInt:
		return int(s.Bits)
	case TagInt8:
		return int8(s.Bits)
	case TagInt16:
		return int16(s.Bits)
	case TagInt32:
		return int32(s.Bits)
	case TagInt64:
		return int64(s.Bits)
	case TagUint:
		return uint(s.Bits)
	case TagUint8:
		return uint8(s.Bits)
	case TagUint16:
		return uint16(s.Bits)
	case TagUint32:
		return uint32(s.Bits)
	case TagUint64:
		return s.Bits
	case TagFloat32:
		return math.Float32frombits(uint32(s.Bits))
	case TagFloat64:
		return math.Float64frombits(s.Bits)
	case TagString:
		return string(s.Str)
	case TagOID:
		return OID(s.Bits)
	}
	return nil
}

// SlotOf is the slot of an atomic value, ok=false for any other. A
// string's slot views the string's own bytes, which must not be written.
func SlotOf(v any) (s Slot, ok bool) {
	switch x := v.(type) {
	case nil:
		return Slot{}, true
	case bool:
		if x {
			return Slot{Tag: TagBool, Bits: 1}, true
		}
		return Slot{Tag: TagBool}, true
	case int:
		return Slot{Tag: TagInt, Bits: uint64(x)}, true
	case int8:
		return Slot{Tag: TagInt8, Bits: uint64(x)}, true
	case int16:
		return Slot{Tag: TagInt16, Bits: uint64(x)}, true
	case int32:
		return Slot{Tag: TagInt32, Bits: uint64(x)}, true
	case int64:
		return Slot{Tag: TagInt64, Bits: uint64(x)}, true
	case uint:
		return Slot{Tag: TagUint, Bits: uint64(x)}, true
	case uint8:
		return Slot{Tag: TagUint8, Bits: uint64(x)}, true
	case uint16:
		return Slot{Tag: TagUint16, Bits: uint64(x)}, true
	case uint32:
		return Slot{Tag: TagUint32, Bits: uint64(x)}, true
	case uint64:
		return Slot{Tag: TagUint64, Bits: x}, true
	case float32:
		return Slot{Tag: TagFloat32, Bits: uint64(math.Float32bits(x))}, true
	case float64:
		return Slot{Tag: TagFloat64, Bits: math.Float64bits(x)}, true
	case string:
		return Slot{Tag: TagString, Str: unsafe.Slice(unsafe.StringData(x), len(x))}, true
	case OID:
		return Slot{Tag: TagOID, Bits: uint64(x)}, true
	}
	return Slot{}, false
}
