// Package frame is the length-prefixed message frame both network
// protocols (the GED event bus and WAL-shipping replication) speak:
//
//	u32 payload length (little endian) | u8 kind | payload
//
// A reader always knows how many bytes to consume before touching the
// payload, frames from one writer can be pipelined back to back, and a
// partial (torn) frame is detected as an unexpected EOF instead of a hang.
// What the kinds and payloads mean belongs to each protocol.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrTooLarge reports a frame whose payload exceeds the protocol's cap. A
// reader raises it from the announced length alone, before reading or
// allocating the body, so an abusive or corrupt peer cannot make it
// allocate or hang.
var ErrTooLarge = errors.New("frame: payload exceeds limit")

// Writer serializes frames onto one side of a connection. It is not safe
// for concurrent use; callers hold their own write lock or funnel frames
// through a single writer goroutine.
type Writer struct {
	w   *bufio.Writer
	max int
	hdr [5]byte
}

// NewWriter writes frames of at most max payload bytes to w.
func NewWriter(w io.Writer, max int) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10), max: max}
}

// Write appends one frame to the buffer. Flush sends it.
func (fw *Writer) Write(kind uint8, payload []byte) error {
	if len(payload) > fw.max {
		return fmt.Errorf("%w: frame payload %d, limit %d", ErrTooLarge, len(payload), fw.max)
	}
	binary.LittleEndian.PutUint32(fw.hdr[:4], uint32(len(payload)))
	fw.hdr[4] = kind
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// Flush sends every buffered frame.
func (fw *Writer) Flush() error { return fw.w.Flush() }

// Send writes one frame and flushes.
func (fw *Writer) Send(kind uint8, payload []byte) error {
	if err := fw.Write(kind, payload); err != nil {
		return err
	}
	return fw.w.Flush()
}

// Reader reads frames. The returned payload is valid until the next Read
// (the buffer is reused).
type Reader struct {
	r   *bufio.Reader
	max uint32
	buf []byte
}

// NewReader reads frames of at most max payload bytes from r.
func NewReader(r io.Reader, max int) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10), max: uint32(max)}
}

// Read reads the next frame. A clean EOF between frames is io.EOF; an EOF
// mid-frame (a torn frame) is io.ErrUnexpectedEOF.
func (fr *Reader) Read() (kind uint8, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		return 0, nil, err // clean EOF between frames
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		return 0, nil, unexpected(err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	kind = hdr[4]
	if n > fr.max {
		return kind, nil, fmt.Errorf("%w: frame announces %d bytes, limit %d", ErrTooLarge, n, fr.max)
	}
	// The buffer grows only as the body arrives (at most doubling, from
	// growStep), so a peer that announces a large frame and stalls costs
	// what it sent, not what it announced.
	fr.buf = fr.buf[:0]
	for len(fr.buf) < int(n) {
		if len(fr.buf) == cap(fr.buf) {
			step := min(int(n)-len(fr.buf), max(len(fr.buf), growStep))
			fr.buf = append(make([]byte, 0, len(fr.buf)+step), fr.buf...)
		}
		m, err := io.ReadFull(fr.r, fr.buf[len(fr.buf):min(int(n), cap(fr.buf))])
		fr.buf = fr.buf[:len(fr.buf)+m]
		if err != nil {
			return kind, nil, unexpected(err)
		}
	}
	return kind, fr.buf, nil
}

// Ready reports, without blocking, whether a whole frame is already
// buffered, and its kind: when ok, the next Read returns that frame
// without touching the connection. A frame longer than the read buffer
// (64 KiB) is never ready; Read still takes it.
func (fr *Reader) Ready() (kind uint8, ok bool) {
	buffered := fr.r.Buffered()
	if buffered < 5 {
		return 0, false
	}
	hdr, _ := fr.r.Peek(5) // buffered: Peek neither blocks nor fails
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > fr.max || uint64(n) > uint64(buffered-5) {
		return 0, false
	}
	return hdr[4], true
}

// growStep is the smallest growth of a Reader's frame buffer.
const growStep = 64 << 10

func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
