package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

const testMax = 1 << 10

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(&buf, testMax)
	if err := fw.Write(1, []byte("app")); err != nil {
		t.Fatal(err)
	}
	if err := fw.Send(2, nil); err != nil {
		t.Fatal(err)
	}
	fr := NewReader(&buf, testMax)
	kind, payload, err := fr.Read()
	if err != nil || kind != 1 || string(payload) != "app" {
		t.Fatalf("kind=%v payload=%q err=%v", kind, payload, err)
	}
	if kind, payload, err = fr.Read(); err != nil || kind != 2 || len(payload) != 0 {
		t.Fatalf("kind=%v len=%d err=%v", kind, len(payload), err)
	}
	if _, _, err = fr.Read(); err != io.EOF {
		t.Fatalf("want clean EOF between frames, got %v", err)
	}
}

// A frame cut off mid-payload must surface as an unexpected EOF — a
// decode error, never a hang or a clean end-of-stream.
func TestTornFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf, testMax).Send(3, bytes.Repeat([]byte{0xab}, 100)); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{1, 3, 5, len(whole) / 2, len(whole) - 1} {
		fr := NewReader(bytes.NewReader(whole[:cut]), testMax)
		if _, _, err := fr.Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// A header announcing more than the cap is rejected before any allocation
// or read of the body, and the cap is the constructor's, per protocol.
func TestOversizedFrame(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], testMax+1)
	hdr[4] = 3
	if _, _, err := NewReader(bytes.NewReader(hdr[:]), testMax).Read(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if _, _, err := NewReader(bytes.NewReader(hdr[:]), 2*testMax).Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("larger cap: want a torn frame, got %v", err)
	}
	if err := NewWriter(io.Discard, testMax).Write(3, make([]byte, testMax+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("writer accepted oversized frame: %v", err)
	}
}

// A frame larger than one growth step arrives whole, and a peer that
// announces a large frame but sends only part of it costs the buffer what
// it sent (one growth step), not what it announced.
func TestLargeFrameGrowsAsBytesArrive(t *testing.T) {
	const limit = 8 * growStep
	big := make([]byte, 5*growStep+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	fw := NewWriter(&buf, limit)
	if err := fw.Write(1, big); err != nil {
		t.Fatal(err)
	}
	if err := fw.Send(2, []byte("small")); err != nil {
		t.Fatal(err)
	}
	fr := NewReader(&buf, limit)
	if kind, payload, err := fr.Read(); err != nil || kind != 1 || !bytes.Equal(payload, big) {
		t.Fatalf("big frame: kind=%d len=%d err=%v", kind, len(payload), err)
	}
	if kind, payload, err := fr.Read(); err != nil || kind != 2 || string(payload) != "small" {
		t.Fatalf("frame after a big one: kind=%d payload=%q err=%v", kind, payload, err)
	}

	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], limit)
	stalled := NewReader(io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(make([]byte, 100))), limit)
	if _, _, err := stalled.Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want a torn frame, got %v", err)
	}
	if c := cap(stalled.buf); c > growStep {
		t.Fatalf("100 bytes of an announced %d grew the buffer to %d", limit, c)
	}
}

// chunks hands its reader one chunk per Read call, so a test decides what
// a bufio.Reader has buffered; reads while blocked fail the test, since
// Ready must never touch the source.
type chunks struct {
	t       *testing.T
	parts   [][]byte
	blocked bool
}

func (c *chunks) Read(p []byte) (int, error) {
	if c.blocked {
		c.t.Fatal("Ready read from the connection")
	}
	if len(c.parts) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.parts[0])
	if c.parts[0] = c.parts[0][n:]; len(c.parts[0]) == 0 {
		c.parts = c.parts[1:]
	}
	return n, nil
}

// Ready reports a frame only when its header and whole body are
// buffered, and never reads to find out.
func TestReadyPeeksWholeBufferedFrames(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(&buf, testMax)
	for kind, body := range []string{"first", "second", "third", "fourth"} {
		if err := fw.Write(uint8(kind+1), []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	all := buf.Bytes()
	f1, f2, f3 := 5+len("first"), 5+len("second"), 5+len("third")
	src := &chunks{t: t, parts: [][]byte{
		all[:f1+f2+3],               // first, second, 3 bytes of third's header
		all[f1+f2+3 : f1+f2+f3+5+2], // rest of third, fourth's header and 2 body bytes
		all[f1+f2+f3+5+2:],          // rest of fourth
	}}
	fr := NewReader(src, testMax)
	want := func(kind uint8, body string) {
		t.Helper()
		src.blocked = false
		k, p, err := fr.Read()
		if err != nil || k != kind || string(p) != body {
			t.Fatalf("Read = %d %q %v, want %d %q", k, p, err, kind, body)
		}
		src.blocked = true
	}
	ready := func(kind uint8, ok bool) {
		t.Helper()
		if k, got := fr.Ready(); got != ok || (ok && k != kind) {
			t.Fatalf("Ready = %d %v, want %d %v", k, got, kind, ok)
		}
	}
	want(1, "first")
	ready(2, true)
	want(2, "second")
	ready(0, false) // a partial header
	want(3, "third")
	ready(0, false) // a header whose body is partly buffered
	want(4, "fourth")
	ready(0, false) // nothing buffered

	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], testMax+1)
	hdr[4] = 9
	big := NewReader(bytes.NewReader(append(hdr[:], make([]byte, testMax+1)...)), testMax)
	if _, err := big.r.Peek(5); err != nil {
		t.Fatal(err)
	}
	if _, ok := big.Ready(); ok {
		t.Fatal("Ready took a frame over the limit")
	}
}
