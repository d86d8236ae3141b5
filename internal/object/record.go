package object

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/event"
)

// Heap record kinds. Every record the layers above storage write starts
// with one of these bytes (the fixed-size catalog meta record starts with
// its ASCII magic instead), so telling records apart is a one-byte check.
const (
	KindObject       byte = 0xD6 // one object (this file)
	KindNames        byte = 0xD7 // the name map (this file)
	KindIndexEntry   byte = 0xD8 // a secondary-index posting (internal/query)
	KindIndexCatalog byte = 0xD9 // the index definitions (internal/query)
	KindOIDs         byte = 0xDA // the OID reservation mark (persist.go)
)

// Object and name-map records are built from the occurrence codec's
// primitives (internal/event: uvarints, length-prefixed strings, type-tagged
// atomic values), so an attribute keeps its concrete Go type across a
// store round trip:
//
//	object:   KindObject | uvarint OID | class | nattrs | (name | tagged value)…
//	name map: KindNames | n | (name | uvarint OID)…
//
// Attributes and names are written in ascending name order, so equal state
// encodes to equal bytes; the decoder rejects any other order. The limits
// bound what one record can make a reader allocate, and the encoder
// enforces them so nothing it writes is undecodable.
const (
	maxAttrs = 1 << 10
	minAttr  = 2 // empty name + nil tag
	minName  = 2 // empty name + one-byte OID
	// maxInterned bounds a class's attribute-name table; names past it
	// still decode, as strings of their own.
	maxInterned = 256
)

func checkString(what, s string) error {
	if len(s) > event.MaxString {
		return fmt.Errorf("object: %s of %d bytes exceeds limit %d", what, len(s), event.MaxString)
	}
	return nil
}

// appendObject appends the record of one object. A non-atomic attribute
// value is an error naming the attribute and its type.
func appendObject(b []byte, oid uint64, class string, attrs map[string]any) ([]byte, error) {
	b = append(b, KindObject)
	b = binary.AppendUvarint(b, oid)
	return appendObjectBody(b, class, attrs)
}

// objectHeadroom is the room New leaves in front of a record body for the
// header putObjectHeader writes once the OID is known.
const objectHeadroom = 1 + binary.MaxVarintLen64

// putObjectHeader completes a record whose body was appended after
// objectHeadroom bytes: it writes the kind byte and OID right before the
// body and returns the record.
func putObjectHeader(b []byte, oid uint64) []byte {
	var h [objectHeadroom]byte
	h[0] = KindObject
	n := 1 + binary.PutUvarint(h[1:], oid)
	start := objectHeadroom - n
	copy(b[start:], h[:n])
	return b[start:]
}

// appendObjectBody appends what follows an object record's OID: class and
// attributes.
func appendObjectBody(b []byte, class string, attrs map[string]any) ([]byte, error) {
	if len(attrs) > maxAttrs {
		return b, fmt.Errorf("object: %d attributes exceed limit %d", len(attrs), maxAttrs)
	}
	if err := checkString("class name", class); err != nil {
		return b, err
	}
	var buf [16]string
	names := buf[:0]
	for name := range attrs {
		names = append(names, name)
	}
	slices.Sort(names)
	b = event.AppendString(b, class)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		if err := checkString("attribute name", name); err != nil {
			return b, err
		}
		b = event.AppendString(b, name)
		var err error
		if b, err = event.AppendValue(b, attrs[name]); err != nil {
			return b, fmt.Errorf("object: attribute %q of class %s: %w", name, class, err)
		}
	}
	return b, nil
}

// readHeader parses what every reader of an object record needs — kind,
// OID, class — and leaves rd at the attribute count. The class aliases the
// record bytes. Callers that never look at attributes (directory rebuild
// and validation, the follower's apply hook) stop here.
func readHeader(rd *event.Reader) (oid uint64, class []byte, ok bool) {
	if rd.Byte() != KindObject {
		return 0, nil, false
	}
	oid = rd.Uvarint()
	class = rd.StrBytes()
	return oid, class, rd.Err() == nil && oid != 0 && len(class) > 0
}

// readAttrs decodes the attributes after a header, interning names through
// the class's table (nil: every name is a string of its own).
func readAttrs(rd *event.Reader, names *nameTable) (map[string]any, bool) {
	return readAttrsInto(rd, names, nil)
}

// readAttrsInto is readAttrs into row (a map sized to the record when row
// is nil). This is the decode of a row handed out: every attribute, boxed.
func readAttrsInto(rd *event.Reader, names *nameTable, row map[string]any) (map[string]any, bool) {
	n, ok := attrCount(rd)
	if !ok {
		return nil, false
	}
	if row == nil {
		row = make(map[string]any, n)
	}
	var prev []byte
	for i := uint64(0); i < n; i++ {
		name := rd.StrBytes()
		if i > 0 && bytes.Compare(prev, name) >= 0 {
			return nil, false
		}
		prev = name
		row[names.intern(name)] = rd.Value()
	}
	return row, rd.Err() == nil && rd.Remaining() == 0
}

// readSlots decodes the attributes after a header into slots, slot i
// holding the attribute want[i] (nil when the record has none). The others
// are stepped over with the same checks, so a record decodes or fails the
// same whatever is wanted. A string slot aliases the record bytes. This is
// the decode of a row that stays in the engine (DESIGN.md "Rows without
// boxes"); want is a query's referenced attributes, a handful of names, so
// a scan of it beats hashing.
func readSlots(rd *event.Reader, want []string, slots []event.Slot) bool {
	clear(slots)
	n, ok := attrCount(rd)
	if !ok {
		return false
	}
	var prev []byte
	for i := uint64(0); i < n; i++ {
		name := rd.StrBytes()
		if i > 0 && bytes.Compare(prev, name) >= 0 {
			return false
		}
		prev = name
		if j := wantIndex(want, name); j >= 0 {
			rd.SlotInto(&slots[j])
		} else {
			rd.SkipValue()
		}
	}
	return rd.Err() == nil && rd.Remaining() == 0
}

func wantIndex(want []string, name []byte) int {
	for j, w := range want {
		if w == string(name) {
			return j
		}
	}
	return -1
}

// attrCount reads a record's attribute count, ok=false when the rest of
// the record cannot hold that many.
func attrCount(rd *event.Reader) (uint64, bool) {
	n := rd.Uvarint()
	return n, n <= maxAttrs && n*minAttr <= uint64(rd.Remaining())
}

// nameTable interns the attribute names decoded from one class's records:
// a decoded object shares its key strings with every other instance of the
// class. Lookups are lock-free against a copy-on-write map.
type nameTable struct {
	mu sync.Mutex
	m  atomic.Pointer[map[string]string]
}

func (t *nameTable) intern(b []byte) string {
	if t == nil {
		return string(b)
	}
	if m := t.m.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	t.mu.Lock()
	defer t.mu.Unlock()
	var old map[string]string
	if m := t.m.Load(); m != nil {
		old = *m
	}
	if len(old) >= maxInterned {
		return s
	}
	grown := make(map[string]string, len(old)+1)
	for k, v := range old {
		grown[k] = v
	}
	grown[s] = s
	t.m.Store(&grown)
	return s
}

// appendNames appends the name-map record.
func appendNames(b []byte, names map[string]uint64) ([]byte, error) {
	keys := make([]string, 0, len(names))
	for name := range names {
		if err := checkString("bound name", name); err != nil {
			return b, err
		}
		keys = append(keys, name)
	}
	slices.Sort(keys)
	b = append(b, KindNames)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, name := range keys {
		b = event.AppendString(b, name)
		b = binary.AppendUvarint(b, names[name])
	}
	return b, nil
}

func decodeNames(data []byte) (map[string]uint64, error) {
	rd := event.NewReader(data)
	kind, n := rd.Byte(), rd.Uvarint()
	if kind != KindNames || n*minName > uint64(rd.Remaining()) {
		return nil, fmt.Errorf("object: name map: %w", event.ErrMalformed)
	}
	names := make(map[string]uint64, n)
	for i := uint64(0); i < n; i++ {
		name := rd.Str()
		names[name] = rd.Uvarint()
	}
	if rd.Err() != nil || rd.Remaining() != 0 || uint64(len(names)) != n {
		return nil, fmt.Errorf("object: name map: %w", event.ErrMalformed)
	}
	return names, nil
}
