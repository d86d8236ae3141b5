package seglog

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

// The record frame, shared by every log in the repository:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// both little endian. The length bound plus the CRC is what lets a reader
// tell a torn or corrupt tail from a record. An empty payload is not a
// record: a zero-filled (preallocated) tail parses as length 0 with a
// matching CRC of 0, and must read as torn.
const (
	FrameHeaderLen = 8
	// MaxRecord bounds one record's payload; a larger announced length is
	// corruption, detected before any allocation.
	MaxRecord = 1 << 24
)

// BeginFrame reserves a frame header at the end of b. The caller appends
// the payload and then calls EndFrame with the length b had before, so a
// record is encoded once, in place, with no intermediate copy.
func BeginFrame(b []byte) []byte {
	return append(b, 0, 0, 0, 0, 0, 0, 0, 0)
}

// EndFrame fills in the header of the frame that starts at b[start] and
// runs to the end of b.
func EndFrame(b []byte, start int) {
	payload := b[start+FrameHeaderLen:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
}

func frameLen(hdr []byte) uint32 { return binary.LittleEndian.Uint32(hdr) }

// NextFrame parses the frame at the head of buf and returns its payload
// (aliasing buf) and total length n. n == 0 with a nil error means buf
// holds only part of a frame; a bad length or checksum is ErrCorrupt.
func NextFrame(buf []byte) (payload []byte, n int, err error) {
	if len(buf) < FrameHeaderLen {
		return nil, 0, nil
	}
	plen := frameLen(buf)
	if plen == 0 || plen > MaxRecord {
		return nil, 0, ErrCorrupt
	}
	n = FrameHeaderLen + int(plen)
	if n > len(buf) {
		return nil, 0, nil
	}
	payload = buf[FrameHeaderLen:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, 0, ErrCorrupt
	}
	return payload, n, nil
}

// ReadFrame reads one frame from r and returns its payload, stored in buf
// when it is large enough. A clean end — or a header cut short, which is
// how a torn tail usually ends — is io.EOF; a cut-short or checksum-failing
// payload is ErrCorrupt.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, err
	}
	plen := frameLen(hdr[:])
	if plen == 0 || plen > MaxRecord {
		return nil, ErrCorrupt
	}
	if uint32(cap(buf)) < plen {
		buf = make([]byte, plen)
	}
	buf = buf[:plen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, ErrCorrupt
	}
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, ErrCorrupt
	}
	return buf, nil
}
