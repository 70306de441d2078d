package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
)

// Shared frame I/O for every stream-oriented transport in the system. Two
// framings live here:
//
//   - the 2-byte-length data framing of the LSL-like transport (writeFrame /
//     readFrame), sized for EEG sample frames and sync probes;
//
//   - the exported 4-byte-length message framing (WriteMsg / ReadMsg) used by
//     the cluster's inter-node control messages and acks, which outgrow a
//     u16 length. The length is bounded by MaxMsgLen, and the reader grows
//     its buffer only as payload bytes arrive, so a corrupted or hostile
//     prefix cannot make it allocate more than it was sent.

// MaxMsgLen bounds one framed inter-node message. It matches the checkpoint
// record bound: model payloads dominate, and 256 MiB is orders of magnitude
// above any classifier in the zoo.
const MaxMsgLen = 256 << 20

// WriteMsg writes one length-prefixed message: [len u32le][payload].
func WriteMsg(w io.Writer, payload []byte) error {
	if len(payload) > MaxMsgLen {
		return fmt.Errorf("stream: message of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMsg reads one length-prefixed message, enforcing MaxMsgLen.
func ReadMsg(r io.Reader) ([]byte, error) {
	return ReadMsgBuf(r, nil)
}

// ReadMsgBuf is ReadMsg reading the payload into buf when its capacity
// suffices, growing it (for the caller's next call too) only as payload
// bytes arrive when it does not. Connection loops pass one per-connection buffer so every
// inbound frame after the largest-yet stops allocating its payload:
//
//	buf := []byte(nil)
//	for {
//		msg, err := stream.ReadMsgBuf(conn, buf)
//		...
//		buf = msg[:0]
//	}
//
// The returned slice aliases buf; it is valid only until the next
// ReadMsgBuf call that reuses it.
func ReadMsgBuf(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxMsgLen {
		return nil, fmt.Errorf("stream: message length %d exceeds limit", n)
	}
	// Grow only as bytes arrive: the length comes off the network, and a
	// forged one must cost no more memory than the bytes actually sent.
	payload := buf[:0]
	for len(payload) < int(n) {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(max(cap(payload), msgGrowChunk), int(n)-len(payload)))
		}
		m, err := io.ReadFull(r, payload[len(payload):min(cap(payload), int(n))])
		payload = payload[:len(payload)+m]
		if err != nil {
			return nil, fmt.Errorf("stream: torn message: %w", err)
		}
	}
	return payload, nil
}

// msgGrowChunk is the most ReadMsgBuf allocates ahead of received bytes.
const msgGrowChunk = 64 << 10

// writeFrame sends a length-prefixed data frame (u16 length, the LSL-like
// transport's wire format). Callers must serialise access.
func writeFrame(conn net.Conn, frame []byte) error {
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(frame)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(frame)
	return err
}

// readFrame reads one length-prefixed data frame.
func readFrame(conn net.Conn, buf []byte) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint16(hdr[:]))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(conn, buf)
	return buf, err
}
