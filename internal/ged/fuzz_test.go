package ged

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/event"
	"repro/internal/frame"
)

// FuzzWireDecode feeds arbitrary bytes through the frame reader and every
// payload decoder of the GED protocol. Each decode returns a protocol
// error or a value, never a panic; a frame announcing more than maxFrame
// is refused before its body is read; and decoding never allocates for
// bytes the input does not carry (a bounded multiple of its length).
func FuzzWireDecode(f *testing.F) {
	occ := &event.Occurrence{Name: "e", Kind: event.KindExplicit, App: "a",
		Params: event.ParamList{{Name: "qty", Value: 3}, {Name: "sym", Value: "IBM"}}}
	contribute, err := encodeContribute(nil, 7, []event.Occurrence{*occ, *occ})
	if err != nil {
		f.Fatal(err)
	}
	notify, err := encodeNotify(nil, 1, 0, occ)
	if err != nil {
		f.Fatal(err)
	}
	stream, err := encodeStream(nil, 1, 42, occ)
	if err != nil {
		f.Fatal(err)
	}
	frames := func(kinds []frameKind, payloads ...[]byte) []byte {
		var b bytes.Buffer
		fw := frame.NewWriter(&b, maxFrame)
		for i, p := range payloads {
			_ = fw.Write(uint8(kinds[i]), p)
		}
		_ = fw.Flush()
		return b.Bytes()
	}
	all := frames(
		[]frameKind{frHello, frHelloAck, frContribute, frContributeAck, frSubscribe, frSubscribeAck, frNotify, frStream, frError},
		encodeHello("app"), encodeHelloAck(9), contribute, encodeContributeAck(7, 9),
		encodeSubscribe(1, "e", 0, subStream, 3), encodeSubscribeAck(1, 9), notify, stream, encodeError("boom"))
	f.Add(all)
	f.Add(all[:len(all)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(frContribute)})             // announces more than maxFrame
	f.Add(frames([]frameKind{frContribute}, []byte{1, 0xff, 0xff, 0x03})) // batch count beyond the limit
	f.Add(frames([]frameKind{frNotify}, bytes.Repeat([]byte{0xff}, 32)))  // garbage occurrence

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := frame.NewReader(bytes.NewReader(data), maxFrame)
		for {
			_, p, err := fr.Read()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, frame.ErrTooLarge) {
					t.Fatalf("frame read: unexpected error %v", err)
				}
				break
			}
			decodeAll(t, p)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(readerSlack+256*len(data)); got > limit {
			t.Fatalf("decoding %d input bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
	})
}

// decodeAll runs every GED payload decoder over p.
func decodeAll(t *testing.T, p []byte) {
	t.Helper()
	check := func(what string, ok bool, err error) {
		t.Helper()
		if err != nil && !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: error %v does not wrap ErrProtocol", what, err)
		}
		if err == nil && !ok {
			t.Fatalf("%s: no error and no value", what)
		}
	}
	_, err := decodeHello(p)
	check("hello", true, err)
	_, err = decodeHelloAck(p)
	check("helloAck", true, err)
	_, occs, err := decodeContribute(p, nil)
	check("contribute", len(occs) <= maxBatch, err)
	_, _, err = decodeContributeAck(p)
	check("contributeAck", true, err)
	_, _, _, _, _, err = decodeSubscribe(p)
	check("subscribe", true, err)
	_, _, err = decodeSubscribeAck(p)
	check("subscribeAck", true, err)
	_, _, occ, err := decodeNotify(p)
	check("notify", occ != nil, err)
	_, _, occ, err = decodeStream(p)
	check("stream", occ != nil, err)
	_, err = decodeError(p)
	check("error", true, err)
}

// readerSlack is what reading any input may cost regardless of its length:
// the frame reader's 64 KiB read buffer, its first 64 KiB body chunk, and
// a few small allocations.
const readerSlack = 160 << 10
