// Package repl implements WAL-shipping replication: a leader serves its
// write-ahead log over a framed binary protocol, and a follower store
// continuously ingests and applies it, staying a bounded number of records
// behind while serving lock-free snapshot reads. The follower survives
// leader crashes (reconnect with offset resume, or promotion to leader);
// the leader survives slow or dead followers (bounded sends, shed and
// resync — the commit path never blocks on replication).
//
// The unit of shipping is the raw WAL byte stream: record frames are
// CRC-checked on both ends and byte offsets are LSNs, so a follower's
// position is just its local log end and resuming after either side
// restarts is a single offset in the handshake.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire protocol: internal/frame frames (u32 payload length | u8 kind |
// payload), the same framing the GED bus speaks. A torn frame surfaces as
// an unexpected EOF, an announced length beyond maxFrame is rejected
// before any allocation. The conversation is fixed-shape: follower sends
// hello{from}, leader answers helloAck{start, end} or error, then
// data{base, raw WAL bytes} frames flow leader → follower and ack{durable}
// frames flow back on the same connection.
const protoVersion = 1

const (
	// maxShipBatch bounds one data frame's WAL payload. Small enough to
	// keep send buffers and per-frame latency bounded, large enough to
	// amortize framing on bulk catch-up.
	maxShipBatch = 256 << 10
	// maxFrame bounds any announced frame payload (data frame overhead
	// included).
	maxFrame = maxShipBatch + 64
	// maxErrMsg bounds an error frame's message.
	maxErrMsg = 4 << 10
)

const (
	frHello    uint8 = iota + 1 // follower → leader: proto, resume LSN
	frHelloAck                  // leader → follower: proto, log start, log end
	frData                      // leader → follower: base LSN, record count, raw WAL bytes
	frAck                       // follower → leader: durable LSN, records applied
	frError                     // leader → follower: refusal message, then close
)

// ErrProtocol reports a malformed or oversized frame; connections close on
// first occurrence.
var ErrProtocol = errors.New("repl: protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// ErrRefused wraps a leader's error frame: the leader is healthy but will
// not serve this follower from its offset (e.g. the log below it was
// pruned and a full resync is required).
var ErrRefused = errors.New("repl: leader refused session")

// --- frame payloads ---------------------------------------------------------

func encodeHello(from uint64) []byte {
	b := make([]byte, 0, 12)
	b = append(b, protoVersion)
	return binary.LittleEndian.AppendUint64(b, from)
}

func decodeHello(p []byte) (from uint64, err error) {
	if len(p) != 9 {
		return 0, protoErrf("hello payload is %d bytes, want 9", len(p))
	}
	if p[0] != protoVersion {
		return 0, protoErrf("peer speaks protocol v%d, this end v%d", p[0], protoVersion)
	}
	return binary.LittleEndian.Uint64(p[1:]), nil
}

func encodeHelloAck(start, end uint64) []byte {
	b := make([]byte, 0, 20)
	b = append(b, protoVersion)
	b = binary.LittleEndian.AppendUint64(b, start)
	return binary.LittleEndian.AppendUint64(b, end)
}

func decodeHelloAck(p []byte) (start, end uint64, err error) {
	if len(p) != 17 {
		return 0, 0, protoErrf("helloAck payload is %d bytes, want 17", len(p))
	}
	if p[0] != protoVersion {
		return 0, 0, protoErrf("leader speaks protocol v%d, this end v%d", p[0], protoVersion)
	}
	return binary.LittleEndian.Uint64(p[1:]), binary.LittleEndian.Uint64(p[9:]), nil
}

// encodeData frames a raw WAL batch into buf (reused across sends).
func encodeData(buf []byte, base uint64, nrecs int, raw []byte) []byte {
	b := binary.LittleEndian.AppendUint64(buf[:0], base)
	b = binary.LittleEndian.AppendUint32(b, uint32(nrecs))
	return append(b, raw...)
}

func decodeData(p []byte) (base uint64, nrecs int, raw []byte, err error) {
	if len(p) < 12 {
		return 0, 0, nil, protoErrf("data payload is %d bytes, want >= 12", len(p))
	}
	return binary.LittleEndian.Uint64(p), int(binary.LittleEndian.Uint32(p[8:])), p[12:], nil
}

func encodeAck(durable, applied uint64) []byte {
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), durable)
	return binary.LittleEndian.AppendUint64(b, applied)
}

func decodeAck(p []byte) (durable, applied uint64, err error) {
	if len(p) != 16 {
		return 0, 0, protoErrf("ack payload is %d bytes, want 16", len(p))
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), nil
}

func encodeError(msg string) []byte {
	if len(msg) > maxErrMsg {
		msg = msg[:maxErrMsg]
	}
	return []byte(msg)
}
