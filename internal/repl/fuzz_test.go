package repl

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/frame"
)

// FuzzWireDecode feeds arbitrary bytes through the frame reader and every
// payload decoder of the shipping protocol. Each decode returns a
// protocol error or a value, never a panic; a frame announcing more than
// maxFrame is refused before its body is read; and decoding never
// allocates for bytes the input does not carry.
func FuzzWireDecode(f *testing.F) {
	var b bytes.Buffer
	fw := frame.NewWriter(&b, maxFrame)
	_ = fw.Write(frHello, encodeHello(4096))
	_ = fw.Write(frHelloAck, encodeHelloAck(0, 4096))
	_ = fw.Write(frData, encodeData(nil, 4096, 2, []byte("two raw wal records")))
	_ = fw.Write(frAck, encodeAck(nil, 4096, 2))
	_ = fw.Write(frError, encodeError("resync required"))
	_ = fw.Flush()
	all := b.Bytes()
	f.Add(all)
	f.Add(all[:len(all)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frData}) // announces more than maxFrame

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
			check := func(what string, ok bool, err error) {
				t.Helper()
				if err != nil && !errors.Is(err, ErrProtocol) {
					t.Fatalf("%s: error %v does not wrap ErrProtocol", what, err)
				}
				if err == nil && !ok {
					t.Fatalf("%s: no error and no value", what)
				}
			}
			_, err = decodeHello(p)
			check("hello", true, err)
			_, _, err = decodeHelloAck(p)
			check("helloAck", true, err)
			_, _, raw, err := decodeData(p)
			check("data", len(raw) == len(p)-12, err)
			_, _, err = decodeAck(p)
			check("ack", true, err)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(readerSlack+len(data)); got > limit {
			t.Fatalf("decoding %d input bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
	})
}

// readerSlack is what reading any input may cost regardless of its length:
// the frame reader's 64 KiB read buffer, its first 64 KiB body chunk, and
// a few small allocations.
const readerSlack = 160 << 10
