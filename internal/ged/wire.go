package ged

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/event"
)

// Wire protocol: every message is one internal/frame frame (u32 payload
// length | u8 kind | payload). Payload integers are unsigned varints,
// strings are varint-length prefixed UTF-8, and occurrences travel in the
// internal/event codec. See DESIGN.md §13 for the full layout.

// protoVersion is the wire protocol generation; Hello carries it and the
// server rejects mismatches so both ends fail loudly instead of
// misparsing frames.
const protoVersion = 1

// Frame and payload hard limits. A frame that announces more than
// maxFrame bytes is a protocol error (the connection is dropped before
// any allocation); the event codec's element limits bound what a single
// decoded occurrence can make the server allocate.
const (
	maxFrame = 4 << 20 // bytes in one frame payload
	maxBatch = 1 << 16 // occurrences in one contribute frame
)

// frameKind tags protocol frames.
type frameKind uint8

const (
	frHello         frameKind = iota + 1 // client → server: version, app name
	frHelloAck                           // server → client: version, partition, log end
	frContribute                         // client → server: seq, occurrence batch
	frContributeAck                      // server → client: seq, log end offset
	frSubscribe                          // client → server: id, event, ctx, mode, offset
	frSubscribeAck                       // server → client: id, log end offset
	frNotify                             // server → client: id, occurrence (live detector)
	frStream                             // server → client: id, offset, occurrence (log replay/tail)
	frError                              // server → client: protocol error message, then close
	frGoodbye                            // server → client: draining, stop sending
)

func (k frameKind) String() string {
	switch k {
	case frHello:
		return "hello"
	case frHelloAck:
		return "helloAck"
	case frContribute:
		return "contribute"
	case frContributeAck:
		return "contributeAck"
	case frSubscribe:
		return "subscribe"
	case frSubscribeAck:
		return "subscribeAck"
	case frNotify:
		return "notify"
	case frStream:
		return "stream"
	case frError:
		return "error"
	case frGoodbye:
		return "goodbye"
	default:
		return fmt.Sprintf("frame(%d)", uint8(k))
	}
}

// ErrProtocol reports a malformed or oversized frame. It wraps the
// specific cause; connections are closed on first occurrence.
var ErrProtocol = errors.New("ged: protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// done closes a payload decode: a malformed payload is a protocol error.
func done(p *event.Reader) error {
	if err := p.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrProtocol, err)
	}
	return nil
}

// --- frame payload builders -------------------------------------------------

func encodeHello(app string) []byte {
	b := make([]byte, 0, len(app)+4)
	b = append(b, protoVersion)
	return event.AppendString(b, app)
}

// version reads and checks the leading protocol version byte.
func version(p *event.Reader, who string) error {
	if ver := p.Byte(); p.Err() == nil && ver != protoVersion {
		return protoErrf("%s speaks protocol v%d, this end v%d", who, ver, protoVersion)
	}
	return nil
}

func decodeHello(payload []byte) (app string, err error) {
	p := event.NewReader(payload)
	if err := version(p, "peer"); err != nil {
		return "", err
	}
	return p.Str(), done(p)
}

func encodeHelloAck(partition, partitions int, logEnd uint64) []byte {
	b := make([]byte, 0, 16)
	b = append(b, protoVersion)
	b = binary.AppendUvarint(b, uint64(partition))
	b = binary.AppendUvarint(b, uint64(partitions))
	return binary.AppendUvarint(b, logEnd)
}

func decodeHelloAck(payload []byte) (partition, partitions int, logEnd uint64, err error) {
	p := event.NewReader(payload)
	if err := version(p, "server"); err != nil {
		return 0, 0, 0, err
	}
	return int(p.Uvarint()), int(p.Uvarint()), p.Uvarint(), done(p)
}

// encodeContribute frames a batch under one client-assigned ack sequence
// number (0 = no ack requested).
func encodeContribute(buf []byte, seq uint64, occs []event.Occurrence) ([]byte, error) {
	b := binary.AppendUvarint(buf[:0], seq)
	b = binary.AppendUvarint(b, uint64(len(occs)))
	var err error
	for i := range occs {
		if b, err = event.AppendOccurrence(b, &occs[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeContribute appends the batch to dst and returns it with the seq.
func decodeContribute(payload []byte, dst []event.Occurrence) (uint64, []event.Occurrence, error) {
	p := event.NewReader(payload)
	seq, n := p.Uvarint(), p.Uvarint()
	if n > maxBatch {
		return 0, dst, protoErrf("batch of %d occurrences exceeds limit %d", n, maxBatch)
	}
	for i := uint64(0); i < n; i++ {
		occ := p.Occurrence()
		if p.Err() != nil {
			break
		}
		dst = append(dst, *occ)
	}
	if err := done(p); err != nil {
		return 0, dst, err
	}
	if p.Remaining() != 0 {
		return 0, dst, protoErrf("%d trailing bytes after contribute batch", p.Remaining())
	}
	return seq, dst, nil
}

func encodeContributeAck(seq, offset uint64) []byte {
	b := make([]byte, 0, 20)
	b = binary.AppendUvarint(b, seq)
	return binary.AppendUvarint(b, offset)
}

func decodeContributeAck(payload []byte) (seq, offset uint64, err error) {
	p := event.NewReader(payload)
	return p.Uvarint(), p.Uvarint(), done(p)
}

// Subscription modes: live routes through the server's detector (the
// composite-event path); stream replays the durable contribution log
// from an offset and then follows its tail (the at-least-once path).
const (
	subLive   = 0
	subStream = 1
)

func encodeSubscribe(id uint32, eventName string, ctx int, mode byte, from uint64) []byte {
	b := make([]byte, 0, len(eventName)+24)
	b = binary.AppendUvarint(b, uint64(id))
	b = event.AppendString(b, eventName)
	b = binary.AppendUvarint(b, uint64(ctx))
	b = append(b, mode)
	return binary.AppendUvarint(b, from)
}

func decodeSubscribe(payload []byte) (id uint32, eventName string, ctx int, mode byte, from uint64, err error) {
	p := event.NewReader(payload)
	return uint32(p.Uvarint()), p.Str(), int(p.Uvarint()), p.Byte(), p.Uvarint(), done(p)
}

func encodeSubscribeAck(id uint32, logEnd uint64) []byte {
	b := make([]byte, 0, 16)
	b = binary.AppendUvarint(b, uint64(id))
	return binary.AppendUvarint(b, logEnd)
}

func decodeSubscribeAck(payload []byte) (id uint32, logEnd uint64, err error) {
	p := event.NewReader(payload)
	return uint32(p.Uvarint()), p.Uvarint(), done(p)
}

func encodeNotify(buf []byte, id uint32, ctx int, occ *event.Occurrence) ([]byte, error) {
	b := binary.AppendUvarint(buf[:0], uint64(id))
	b = binary.AppendUvarint(b, uint64(ctx))
	return event.AppendOccurrence(b, occ)
}

func decodeNotify(payload []byte) (id uint32, ctx int, occ *event.Occurrence, err error) {
	p := event.NewReader(payload)
	return uint32(p.Uvarint()), int(p.Uvarint()), p.Occurrence(), done(p)
}

func encodeStream(buf []byte, id uint32, offset uint64, occ *event.Occurrence) ([]byte, error) {
	b := binary.AppendUvarint(buf[:0], uint64(id))
	b = binary.AppendUvarint(b, offset)
	return event.AppendOccurrence(b, occ)
}

func decodeStream(payload []byte) (id uint32, offset uint64, occ *event.Occurrence, err error) {
	p := event.NewReader(payload)
	return uint32(p.Uvarint()), p.Uvarint(), p.Occurrence(), done(p)
}

func encodeError(msg string) []byte {
	if len(msg) > event.MaxString {
		msg = msg[:event.MaxString]
	}
	return event.AppendString(make([]byte, 0, len(msg)+4), msg)
}

func decodeError(payload []byte) (string, error) {
	p := event.NewReader(payload)
	return p.Str(), done(p)
}
