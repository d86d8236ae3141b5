package event

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// codecSample exercises every field, every value tag and a constituent
// tree.
func codecSample() *Occurrence {
	leaf := &Occurrence{
		Name: "deposit", Kind: KindMethod, Class: "ACCOUNT", Method: "Deposit", Modifier: Begin,
		Object: 42, Seq: 7, Time: 1000, Txn: 3, App: "bank",
		Params: ParamList{
			{Name: "nil", Value: nil}, {Name: "bool", Value: true},
			{Name: "int", Value: int(-5)}, {Name: "int8", Value: int8(-8)}, {Name: "int16", Value: int16(-16)},
			{Name: "int32", Value: int32(-32)}, {Name: "int64", Value: int64(math.MinInt64)},
			{Name: "uint", Value: uint(5)}, {Name: "uint8", Value: uint8(8)}, {Name: "uint16", Value: uint16(16)},
			{Name: "uint32", Value: uint32(32)}, {Name: "uint64", Value: uint64(math.MaxUint64)},
			{Name: "float32", Value: float32(1.5)}, {Name: "float64", Value: math.Pi},
			{Name: "string", Value: "héllo"}, {Name: "oid", Value: OID(99)},
		},
	}
	return &Occurrence{
		Name: "seq", Kind: KindComposite, Seq: 9, Time: 1001,
		Constituents: []*Occurrence{leaf, {Name: "withdraw", Kind: KindExplicit, Seq: 9}},
	}
}

func TestOccurrenceCodecRoundTrip(t *testing.T) {
	want := codecSample()
	b, err := AppendOccurrence([]byte("prefix"), want)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(b[len("prefix"):])
	got := r.Occurrence()
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", r.Err(), r.Remaining())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the occurrence:\n got %+v\nwant %+v", got, want)
	}
	for cut := 0; cut < len(b)-len("prefix"); cut++ {
		r := NewReader(b[len("prefix") : len("prefix")+cut])
		r.Occurrence()
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// The encoder refuses what the decoder would refuse, so nothing it writes
// into a log is undecodable.
// TestSkipValueMatchesValue: for every tag byte, under payloads that are
// valid for some tags and truncated or malformed for others, SkipValue
// consumes exactly the bytes Value does and fails exactly when it fails.
// A tag added to one of the two switches and not the other fails here.
func TestSkipValueMatchesValue(t *testing.T) {
	tails := [][]byte{
		{},
		{0x00},
		{0x05},
		{0x80},                   // truncated varint
		{0x03, 'a', 'b', 'c'},    // a three-byte string
		{0x09, 'x'},              // a string overrunning the payload
		{1, 2, 3},                // short of a float32
		{1, 2, 3, 4, 5, 6, 7, 8}, // a float64, or a float32 and more
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for tag := 0; tag < 256; tag++ {
		for _, tail := range tails {
			in := append([]byte{byte(tag)}, tail...)
			full, skip := NewReader(in), NewReader(in)
			full.Value()
			skip.SkipValue()
			if (full.Err() == nil) != (skip.Err() == nil) || full.Remaining() != skip.Remaining() {
				t.Fatalf("tag %d, payload % x: Value left %d bytes (err %v), SkipValue %d (err %v)",
					tag, tail, full.Remaining(), full.Err(), skip.Remaining(), skip.Err())
			}
		}
	}
}

func TestEncoderEnforcesDecoderLimits(t *testing.T) {
	deep := &Occurrence{Name: "leaf"}
	for i := 0; i <= maxDepth; i++ {
		deep = &Occurrence{Name: "n", Constituents: []*Occurrence{deep}}
	}
	for name, occ := range map[string]*Occurrence{
		"long name":        {Name: strings.Repeat("x", MaxString+1)},
		"long param name":  {Params: ParamList{{Name: strings.Repeat("x", MaxString+1)}}},
		"long string":      {Params: ParamList{{Name: "s", Value: strings.Repeat("x", MaxString+1)}}},
		"too many params":  {Params: make(ParamList, maxParams+1)},
		"non-atomic value": {Params: ParamList{{Name: "v", Value: []int{1}}}},
		"too deep":         deep,
	} {
		if _, err := AppendOccurrence(nil, occ); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// size counts the smallest encoding the decoded tree could have come from.
func size(o *Occurrence) int {
	n := minOccurrence + minParam*len(o.Params)
	for _, c := range o.Constituents {
		n += size(c)
	}
	return n
}

// FuzzOccurrenceCodec feeds arbitrary bytes to the decoder: it never
// panics, never builds more than the input could hold, and whatever it
// accepts survives encode∘decode unchanged.
func FuzzOccurrenceCodec(f *testing.F) {
	sample, err := AppendOccurrence(nil, codecSample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add(sample[:len(sample)/2])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0x03, 0})    // huge parameter count
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 7}) // huge constituent count

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		occ := r.Occurrence()
		if r.Err() != nil {
			if !errors.Is(r.Err(), ErrMalformed) {
				t.Fatalf("decode error %v does not wrap ErrMalformed", r.Err())
			}
			return
		}
		if got := size(occ); got > len(data) {
			t.Fatalf("decoded a tree of at least %d bytes from %d", got, len(data))
		}
		// Varints have more than one spelling, so compare re-encodings, not
		// the input (and bytes, not values: NaN parameters never compare equal).
		enc, err := AppendOccurrence(nil, occ)
		if err != nil {
			t.Fatalf("decoded occurrence does not re-encode: %v", err)
		}
		r2 := NewReader(enc)
		occ2 := r2.Occurrence()
		if r2.Err() != nil || r2.Remaining() != 0 {
			t.Fatalf("re-encoding does not decode: err %v, %d bytes left", r2.Err(), r2.Remaining())
		}
		enc2, err := AppendOccurrence(nil, occ2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not the identity (%v):\n%x\n%x", err, enc, enc2)
		}
	})
}
