// WAL streams: the segment record format on a byte stream instead of a file.
// A stream carries deltas between nodes — replication batches and session
// migrations — so the receiver checks every byte with the same frame reader
// and batch verifier that recovery uses on segments.
//
//	stream := header(kind=2) batch*
//	batch  := entry-frame+ seal-frame
//
// Entries are numbered from 1 per stream and must stay contiguous across
// batches; a gap, a seal that does not match its entries, or any other
// record type is corruption. A stream has no footer and no fsync.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// StreamWriter frames entries and one seal per batch onto a stream. Append
// only buffers; Seal writes the whole batch (preceded by the stream header,
// the first time) in one Write. After a failed Seal the stream is torn:
// abandon the writer together with its connection.
type StreamWriter struct {
	w       io.Writer
	buf     []byte
	pend    batch
	nextSeq uint64
}

// NewStreamWriter returns a writer whose first entry is seq 1.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w, buf: appendHeader(nil, kindStream), nextSeq: 1}
}

// Append buffers one entry and returns its sequence number. It never fails;
// the error is there so a StreamWriter and a Log take entries through the
// same method.
func (s *StreamWriter) Append(kind Kind, data []byte) (uint64, error) {
	seq := s.nextSeq
	var payload []byte
	s.buf, payload = appendEntry(s.buf, kind, seq, data)
	s.pend.add(seq, payload)
	s.nextSeq++
	return seq, nil
}

// Seal closes the pending batch with its seal frame and writes the batch.
// With nothing pending it writes nothing and returns the zero root.
func (s *StreamWriter) Seal() (root [HashSize]byte, first, last uint64, err error) {
	if len(s.pend.leaves) == 0 {
		return root, 0, 0, nil
	}
	pay, root, first, last := s.pend.seal()
	s.buf = appendFrame(s.buf, recSeal, pay[:])
	n, err := s.w.Write(s.buf)
	if err == nil && n != len(s.buf) {
		err = io.ErrShortWrite
	}
	s.buf = s.buf[:0]
	return root, first, last, err
}

// Batch is one verified batch read from a stream.
type Batch struct {
	// First and Last are the batch's entry sequence range.
	First, Last uint64
	// Root is the batch's Merkle root, recomputed from the entries and equal
	// to the one the sender sealed.
	Root    [HashSize]byte
	Entries []Entry
}

// StreamReader reads verified batches from a stream, one at a time.
type StreamReader struct {
	r      io.Reader
	header bool
	pend   batch
	buf    []byte
}

// NewStreamReader returns a reader for r. The header is read with the first
// batch.
func NewStreamReader(r io.Reader) *StreamReader { return &StreamReader{r: r} }

// ReadBatch reads exactly one batch and never reads past its seal, so bytes
// that follow on the same connection stay unread. It returns io.EOF when the
// stream ends cleanly between batches (or before the header). Anything that
// is not a whole batch with a matching seal wraps ErrCorrupt; a stream from
// another format version wraps ErrVersion. Payload memory grows only with
// bytes received, whatever lengths the frames declare.
func (s *StreamReader) ReadBatch() (*Batch, error) {
	if !s.header {
		var hdr [headerLen]byte
		if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
			if err == io.EOF {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("%w: stream: short header", ErrCorrupt)
		}
		if err := checkHeader(hdr[:], kindStream, "stream"); err != nil {
			return nil, err
		}
		s.header = true
	}
	b := &Batch{}
	for {
		typ, payload, err := readFrame(s.r, s.buf)
		s.buf = payload
		if err == io.EOF && len(s.pend.leaves) == 0 {
			return nil, io.EOF
		}
		if err == io.EOF {
			err = errors.New("stream ends inside a batch")
		}
		if err != nil {
			return nil, fmt.Errorf("%w: stream: %v", ErrCorrupt, err)
		}
		switch typ {
		case recEntry:
			prev := s.pend.last
			seq, err := s.pend.entry(payload)
			if err == nil && prev == 0 && seq != 1 {
				err = fmt.Errorf("stream starts at entry seq %d, want 1", seq)
			}
			if err != nil {
				return nil, fmt.Errorf("%w: stream: %v", ErrCorrupt, err)
			}
			b.Entries = append(b.Entries, Entry{
				Seq: seq, Kind: Kind(payload[0]), Data: bytes.Clone(payload[entryHdrLen:]), Sealed: true,
			})
		case recSeal:
			root, first, last, _, err := s.pend.verify(payload)
			if err != nil {
				return nil, fmt.Errorf("%w: stream: %v", ErrCorrupt, err)
			}
			b.First, b.Last, b.Root = first, last, root
			return b, nil
		default:
			return nil, fmt.Errorf("%w: stream: record type %d", ErrCorrupt, typ)
		}
	}
}
