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
