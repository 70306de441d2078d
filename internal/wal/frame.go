// Framing and batch sealing shared by segments and streams: one frame
// builder, one frame reader, and one batch verifier, so a byte that is valid
// in a segment file is valid on the wire and is checked by the same code.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// appendHeader appends the 8-byte file/stream header of the given kind.
func appendHeader(dst []byte, kind uint16) []byte {
	dst = append(dst, walMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, walVersion)
	return binary.LittleEndian.AppendUint16(dst, kind)
}

// checkHeader validates a header read from what (a segment name or
// "stream") against the wanted kind.
func checkHeader(hdr []byte, kind uint16, what string) error {
	if string(hdr[:4]) != walMagic {
		return fmt.Errorf("%w: %s: bad magic", ErrCorrupt, what)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != walVersion {
		return fmt.Errorf("%w: %s: version %d", ErrVersion, what, v)
	}
	if k := binary.LittleEndian.Uint16(hdr[6:8]); k != kind {
		return fmt.Errorf("%w: %s: kind %d, want %d", ErrCorrupt, what, k, kind)
	}
	return nil
}

// appendFrame appends one framed record to dst: type, length, the payload
// parts back to back, and the CRC-32C over all of it.
func appendFrame(dst []byte, typ byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	start := len(dst)
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// appendEntry appends one entry frame to dst and returns it with the
// frame's payload (kind | seq | data), which is what the batch hashes.
func appendEntry(dst []byte, kind Kind, seq uint64, data []byte) (out, payload []byte) {
	var hdr [entryHdrLen]byte
	hdr[0] = byte(kind)
	binary.LittleEndian.PutUint64(hdr[1:], seq)
	start := len(dst)
	out = appendFrame(dst, recEntry, hdr[:], data)
	return out, out[start+frameHdrLen : len(out)-4]
}

// readGrowChunk is the most readFrame allocates ahead of bytes actually
// received: a forged length costs at most this much, not the length.
const readGrowChunk = 64 << 10

// readFrame reads one framed record from r and checks its CRC. The payload
// is read into buf's storage, which grows only as bytes arrive; the
// returned payload aliases it and is valid until the next call that reuses
// it. It returns io.EOF when r ends exactly at a frame boundary; any other
// failure is a tear, described by the error.
func readFrame(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var pre [frameHdrLen]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.EOF {
			return 0, buf[:0], io.EOF
		}
		return 0, buf[:0], errors.New("short frame header")
	}
	n := binary.LittleEndian.Uint32(pre[1:])
	if n > maxRecordLen {
		return 0, buf[:0], fmt.Errorf("implausible record length %d", n)
	}
	want := int(n) + 4 // payload + crc
	buf = buf[:0]
	for len(buf) < want {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(cap(buf), readGrowChunk), want-len(buf)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), want)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return 0, buf[:0], errors.New("short frame")
		}
	}
	crc := crc32.Checksum(pre[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, buf[:n])
	if crc != binary.LittleEndian.Uint32(buf[n:]) {
		return 0, buf[:0], errors.New("crc mismatch")
	}
	return pre[0], buf[:n], nil
}

// batch is the pending (unsealed) run of entries that every writer and
// reader keeps: the leaf hash of each entry payload since the last seal,
// and the sequence numbers around them.
type batch struct {
	leaves [][HashSize]byte
	first  uint64 // seq of the first pending entry
	last   uint64 // seq of the last entry added; kept across seals
	bytes  int64  // pending payload bytes
}

func (b *batch) add(seq uint64, payload []byte) {
	if len(b.leaves) == 0 {
		b.first = seq
	}
	b.leaves = append(b.leaves, HashLeaf(payload))
	b.last = seq
	b.bytes += int64(len(payload))
}

func (b *batch) reset() {
	b.leaves = b.leaves[:0]
	b.first = 0
	b.bytes = 0
}

// seal closes the pending batch: it returns the seal payload (first | last
// | count | root) and the root, and empties the batch.
func (b *batch) seal() (pay [sealPayLen]byte, root [HashSize]byte, first, last uint64) {
	root = Root(b.leaves)
	first, last = b.first, b.last
	binary.LittleEndian.PutUint64(pay[0:8], first)
	binary.LittleEndian.PutUint64(pay[8:16], last)
	binary.LittleEndian.PutUint32(pay[16:20], uint32(len(b.leaves)))
	copy(pay[20:], root[:])
	b.reset()
	return pay, root, first, last
}

// entry checks one read entry payload — long enough for kind and seq, and
// numbered right after the previous entry — and adds it to the batch.
func (b *batch) entry(payload []byte) (uint64, error) {
	if len(payload) < entryHdrLen {
		return 0, errors.New("entry too short")
	}
	seq := binary.LittleEndian.Uint64(payload[1:9])
	if b.last != 0 && seq != b.last+1 {
		return 0, fmt.Errorf("entry seq %d after %d", seq, b.last)
	}
	b.add(seq, payload)
	return seq, nil
}

// verify checks a read seal payload against the pending batch: its entry
// count, its [first,last] range and its Merkle root. On success it returns
// the seal's fields and empties the batch.
func (b *batch) verify(payload []byte) (root [HashSize]byte, first, last uint64, count int, err error) {
	if len(payload) != sealPayLen {
		return root, 0, 0, 0, fmt.Errorf("seal size %d", len(payload))
	}
	first = binary.LittleEndian.Uint64(payload[0:8])
	last = binary.LittleEndian.Uint64(payload[8:16])
	count = int(binary.LittleEndian.Uint32(payload[16:20]))
	if count != len(b.leaves) || count == 0 || first != b.first || last != b.last {
		return root, 0, 0, 0, fmt.Errorf("seal [%d,%d]x%d does not match pending entries [%d,%d]x%d",
			first, last, count, b.first, b.last, len(b.leaves))
	}
	copy(root[:], payload[20:])
	if want := Root(b.leaves); root != want {
		return root, 0, 0, 0, fmt.Errorf("merkle root mismatch for batch [%d,%d] (stored %s, computed %s)",
			first, last, hexRoot(root), hexRoot(want))
	}
	b.reset()
	return root, first, last, count, nil
}
