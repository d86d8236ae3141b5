package event

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The occurrence codec is the one serialised form of an occurrence: the
// GED wire protocol, the GED contribution log and the detector's event log
// all carry it. Integers are unsigned varints, strings are varint-length
// prefixed UTF-8, and parameter values carry a one-byte type tag so the
// concrete Go type survives the round trip (the paper's atomic parameter
// set). An occurrence is
//
//	name | u8 kind | class | method | u8 modifier | object | seq | time |
//	txn | app | nparams | (name | tag | value)… | nconstituents | occurrence…
//
// Element limits bound what one decoded occurrence can make the reader
// allocate; the encoder enforces the same limits so nothing it writes is
// undecodable.
const (
	MaxString       = 64 << 10
	maxParams       = 1 << 10
	maxConstituents = 1 << 16
	maxDepth        = 32 // constituent nesting of one occurrence
	// Smallest encodings, used to reject a count the remaining bytes cannot
	// hold before allocating for it.
	minParam      = 2  // empty name + nil tag
	minOccurrence = 12 // every field empty or zero
)

// ErrMalformed reports bytes that are not a valid encoding; it wraps the
// specific cause.
var ErrMalformed = errors.New("event: malformed encoding")

// AppendString appends a varint-length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Param value type tags. The tag preserves the concrete Go type of the
// any-typed value (rule conditions type-assert on parameter values, so int
// must come back as int, not int64). A new tag goes into both Reader.Value
// and Reader.SkipValue; TestSkipValueMatchesValue fails on one that does not.
const (
	tagNil = iota
	tagBool
	tagInt
	tagInt8
	tagInt16
	tagInt32
	tagInt64
	tagUint
	tagUint8
	tagUint16
	tagUint32
	tagUint64
	tagFloat32
	tagFloat64
	tagString
	tagOID
)

// Atomic reports whether v belongs to the atomic value set the paper allows
// as event parameters (plus the OID, which is carried separately): the
// types the tags above encode.
func Atomic(v any) bool {
	switch v.(type) {
	case nil, bool, string,
		int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, OID:
		return true
	default:
		return false
	}
}

// AppendValue appends one atomic parameter value.
func AppendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case bool:
		if x {
			return append(b, tagBool, 1), nil
		}
		return append(b, tagBool, 0), nil
	case int:
		return binary.AppendVarint(append(b, tagInt), int64(x)), nil
	case int8:
		return binary.AppendVarint(append(b, tagInt8), int64(x)), nil
	case int16:
		return binary.AppendVarint(append(b, tagInt16), int64(x)), nil
	case int32:
		return binary.AppendVarint(append(b, tagInt32), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(b, tagInt64), x), nil
	case uint:
		return binary.AppendUvarint(append(b, tagUint), uint64(x)), nil
	case uint8:
		return binary.AppendUvarint(append(b, tagUint8), uint64(x)), nil
	case uint16:
		return binary.AppendUvarint(append(b, tagUint16), uint64(x)), nil
	case uint32:
		return binary.AppendUvarint(append(b, tagUint32), uint64(x)), nil
	case uint64:
		return binary.AppendUvarint(append(b, tagUint64), x), nil
	case float32:
		return binary.LittleEndian.AppendUint32(append(b, tagFloat32), math.Float32bits(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat64), math.Float64bits(x)), nil
	case string:
		if len(x) > MaxString {
			return b, fmt.Errorf("event: string value of %d bytes exceeds limit %d", len(x), MaxString)
		}
		return AppendString(append(b, tagString), x), nil
	case OID:
		return binary.AppendUvarint(append(b, tagOID), uint64(x)), nil
	default:
		return b, fmt.Errorf("event: non-atomic parameter value %T", v)
	}
}

// AppendOccurrence appends one occurrence, recursing into constituents
// (composite notifications carry their full parameter tree).
func AppendOccurrence(b []byte, occ *Occurrence) ([]byte, error) {
	return appendOccurrence(b, occ, 0)
}

func appendOccurrence(b []byte, occ *Occurrence, depth int) ([]byte, error) {
	if depth > maxDepth {
		return b, fmt.Errorf("event: occurrence nesting exceeds %d", maxDepth)
	}
	if len(occ.Params) > maxParams {
		return b, fmt.Errorf("event: %d parameters exceed limit %d", len(occ.Params), maxParams)
	}
	if len(occ.Constituents) > maxConstituents {
		return b, fmt.Errorf("event: %d constituents exceed limit %d", len(occ.Constituents), maxConstituents)
	}
	for _, s := range [...]string{occ.Name, occ.Class, occ.Method, occ.App} {
		if len(s) > MaxString {
			return b, fmt.Errorf("event: string of %d bytes exceeds limit %d", len(s), MaxString)
		}
	}
	b = AppendString(b, occ.Name)
	b = append(b, byte(occ.Kind))
	b = AppendString(b, occ.Class)
	b = AppendString(b, occ.Method)
	b = append(b, byte(occ.Modifier))
	b = binary.AppendUvarint(b, uint64(occ.Object))
	b = binary.AppendUvarint(b, occ.Seq)
	b = binary.AppendUvarint(b, occ.Time)
	b = binary.AppendUvarint(b, occ.Txn)
	b = AppendString(b, occ.App)
	b = binary.AppendUvarint(b, uint64(len(occ.Params)))
	var err error
	for _, p := range occ.Params {
		if len(p.Name) > MaxString {
			return b, fmt.Errorf("event: parameter name of %d bytes exceeds limit %d", len(p.Name), MaxString)
		}
		b = AppendString(b, p.Name)
		if b, err = AppendValue(b, p.Value); err != nil {
			return b, err
		}
	}
	b = binary.AppendUvarint(b, uint64(len(occ.Constituents)))
	for _, c := range occ.Constituents {
		if b, err = appendOccurrence(b, c, depth+1); err != nil {
			return b, err
		}
	}
	return b, nil
}

// Reader decodes the codec with bounds checks. Errors are sticky: after
// the first failure every getter returns a zero value and Err reports the
// cause, so a decoder reads straight through its fields and checks once.
// Corrupt input becomes ErrMalformed, never a panic.
type Reader struct {
	b   []byte
	pos int
	err error
}

// NewReader decodes from b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many bytes have not been consumed.
func (r *Reader) Remaining() int { return len(r.b) - r.pos }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
		r.pos = len(r.b)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.pos >= len(r.b) {
		r.fail("truncated at byte %d", r.pos)
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// fixed reads n raw bytes.
func (r *Reader) fixed(n int) []byte {
	if r.Remaining() < n {
		r.fail("%d-byte field overruns payload at byte %d", n, r.pos)
		return make([]byte, n)
	}
	b := r.b[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if n > MaxString {
		r.fail("string of %d bytes exceeds limit %d", n, MaxString)
		return ""
	}
	if uint64(r.Remaining()) < n {
		r.fail("string of %d bytes overruns payload", n)
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// StrBytes reads a length-prefixed string as a view into the input — no
// copy — for callers that intern it or only compare it.
func (r *Reader) StrBytes() []byte {
	n := r.Uvarint()
	if n > MaxString {
		r.fail("string of %d bytes exceeds limit %d", n, MaxString)
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail("string of %d bytes overruns payload", n)
		return nil
	}
	b := r.b[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// Value reads one tagged parameter value.
func (r *Reader) Value() any {
	switch tag := r.Byte(); tag {
	case tagNil:
		return nil
	case tagBool:
		return r.Byte() != 0
	case tagInt:
		return int(r.Varint())
	case tagInt8:
		return int8(r.Varint())
	case tagInt16:
		return int16(r.Varint())
	case tagInt32:
		return int32(r.Varint())
	case tagInt64:
		return r.Varint()
	case tagUint:
		return uint(r.Uvarint())
	case tagUint8:
		return uint8(r.Uvarint())
	case tagUint16:
		return uint16(r.Uvarint())
	case tagUint32:
		return uint32(r.Uvarint())
	case tagUint64:
		return r.Uvarint()
	case tagFloat32:
		return math.Float32frombits(binary.LittleEndian.Uint32(r.fixed(4)))
	case tagFloat64:
		return math.Float64frombits(binary.LittleEndian.Uint64(r.fixed(8)))
	case tagString:
		return r.Str()
	case tagOID:
		return OID(r.Uvarint())
	default:
		r.fail("unknown value tag %d", tag)
		return nil
	}
}

// SkipValue steps over one tagged value, failing exactly where Value would,
// without building it.
func (r *Reader) SkipValue() {
	switch tag := r.Byte(); tag {
	case tagNil:
	case tagBool:
		r.Byte()
	case tagInt, tagInt8, tagInt16, tagInt32, tagInt64:
		r.Varint()
	case tagUint, tagUint8, tagUint16, tagUint32, tagUint64, tagOID:
		r.Uvarint()
	case tagFloat32:
		r.fixed(4)
	case tagFloat64:
		r.fixed(8)
	case tagString:
		r.StrBytes()
	default:
		r.fail("unknown value tag %d", tag)
	}
}

// Occurrence reads one occurrence and its constituent tree. The result is
// meaningful only when Err is nil.
func (r *Reader) Occurrence() *Occurrence { return r.occurrence(0) }

func (r *Reader) occurrence(depth int) *Occurrence {
	if depth > maxDepth {
		r.fail("occurrence nesting exceeds %d", maxDepth)
		return nil
	}
	occ := &Occurrence{
		Name:     r.Str(),
		Kind:     Kind(r.Byte()),
		Class:    r.Str(),
		Method:   r.Str(),
		Modifier: Modifier(r.Byte()),
		Object:   OID(r.Uvarint()),
		Seq:      r.Uvarint(),
		Time:     r.Uvarint(),
		Txn:      r.Uvarint(),
		App:      r.Str(),
	}
	nparams := r.Uvarint()
	if nparams > maxParams || nparams*minParam > uint64(r.Remaining()) {
		r.fail("%d parameters exceed limit %d or the payload", nparams, maxParams)
		return nil
	}
	if nparams > 0 {
		occ.Params = make(ParamList, nparams)
		for i := range occ.Params {
			occ.Params[i] = Param{Name: r.Str(), Value: r.Value()}
		}
	}
	nconst := r.Uvarint()
	if nconst > maxConstituents || nconst*minOccurrence > uint64(r.Remaining()) {
		r.fail("%d constituents exceed limit %d or the payload", nconst, maxConstituents)
		return nil
	}
	if nconst > 0 {
		occ.Constituents = make([]*Occurrence, nconst)
		for i := range occ.Constituents {
			if occ.Constituents[i] = r.occurrence(depth + 1); r.err != nil {
				return nil
			}
		}
	}
	return occ
}
