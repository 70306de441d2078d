package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// twoBatchStream writes two batches (three entries, then two) and returns
// the wire bytes, the offset where the second batch starts, and both roots.
func twoBatchStream(t testing.TB) (wire []byte, split int, roots [2][HashSize]byte) {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	batches := [][]string{{"model", "session-a", "refs"}, {"session-b", "refs-2"}}
	for i, entries := range batches {
		for j, data := range entries {
			seq, _ := sw.Append(Kind(j+1), []byte(data))
			if want := uint64(i*3 + j + 1); seq != want {
				t.Fatalf("entry %q got seq %d, want %d", data, seq, want)
			}
		}
		root, _, _, err := sw.Seal()
		if err != nil {
			t.Fatal(err)
		}
		roots[i] = root
		if i == 0 {
			split = buf.Len()
		}
	}
	return buf.Bytes(), split, roots
}

// readAll reads batches until the first error and returns both.
func readAll(r io.Reader) ([]*Batch, error) {
	sr := NewStreamReader(r)
	var out []*Batch
	for {
		b, err := sr.ReadBatch()
		if err != nil {
			return out, err
		}
		out = append(out, b)
	}
}

func TestStreamBatchRoundTrip(t *testing.T) {
	wire, _, roots := twoBatchStream(t)
	got, err := readAll(bytes.NewReader(wire))
	if err != io.EOF {
		t.Fatalf("clean end returned %v, want io.EOF", err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d batches, want 2", len(got))
	}
	if got[0].First != 1 || got[0].Last != 3 || got[1].First != 4 || got[1].Last != 5 {
		t.Fatalf("batch ranges [%d,%d] [%d,%d], want [1,3] [4,5]", got[0].First, got[0].Last, got[1].First, got[1].Last)
	}
	for i, b := range got {
		if b.Root != roots[i] {
			t.Fatalf("batch %d verified root %x, sender sealed %x", i, b.Root, roots[i])
		}
	}
	if e := got[1].Entries[0]; string(e.Data) != "session-b" || e.Kind != 1 || e.Seq != 4 || !e.Sealed {
		t.Fatalf("entry mangled: %+v", e)
	}
	if roots[0] == roots[1] {
		t.Fatal("distinct batches sealed with the same root")
	}
}

// TestStreamBatchCleanCloseIsEOF: a sender that closes between batches, or
// before sending anything, ends the stream with io.EOF, not corruption.
func TestStreamBatchCleanCloseIsEOF(t *testing.T) {
	wire, split, _ := twoBatchStream(t)
	for _, end := range []int{0, headerLen, split, len(wire)} {
		if _, err := readAll(bytes.NewReader(wire[:end])); err != io.EOF {
			t.Fatalf("stream closed at batch boundary %d returned %v, want io.EOF", end, err)
		}
	}
	// A writer with nothing pending writes nothing, not even a header.
	var buf bytes.Buffer
	if _, _, _, err := NewStreamWriter(&buf).Seal(); err != nil || buf.Len() != 0 {
		t.Fatalf("empty seal wrote %d bytes (err %v)", buf.Len(), err)
	}
}

// TestStreamBatchTornAtEveryByte: a stream cut at any byte that is not a
// batch boundary — inside the header, a frame header, a payload, a CRC or a
// seal — fails with ErrCorrupt, never a clean EOF and never a batch.
func TestStreamBatchTornAtEveryByte(t *testing.T) {
	wire, split, _ := twoBatchStream(t)
	for cut := 1; cut < len(wire); cut++ {
		if cut == headerLen || cut == split {
			continue
		}
		got, err := readAll(bytes.NewReader(wire[:cut]))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stream torn at byte %d returned %v, want ErrCorrupt", cut, err)
		}
		want := 0
		if cut > split {
			want = 1
		}
		if len(got) != want {
			t.Fatalf("stream torn at byte %d yielded %d batches, want %d", cut, len(got), want)
		}
	}
}

// TestStreamBatchTruncationIsCorrupt: a single-batch stream cut inside an
// entry's framing, its payload, the seal or the stream header is ErrCorrupt
// from the first ReadBatch, with no batch returned.
func TestStreamBatchTruncationIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, data := range []string{"model", strings.Repeat("session", 8), "refs"} {
		if _, err := sw.Append(1, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cuts := []int{
		headerLen - 2,  // inside the stream header
		headerLen + 2,  // inside the first entry's framing
		headerLen + 20, // inside the first entry's payload
		len(full) / 2,  // inside the second entry
		len(full) - 2,  // inside the seal's CRC
	}
	for _, cut := range cuts {
		b, err := NewStreamReader(bytes.NewReader(full[:cut])).ReadBatch()
		if !errors.Is(err, ErrCorrupt) || b != nil {
			t.Fatalf("cut at %d: ReadBatch returned %v, %v; want nil, ErrCorrupt", cut, b, err)
		}
	}
}

// refreshCRC recomputes the CRC of the frame starting at off, so a tamper
// passes framing and only the Merkle check can catch it.
func refreshCRC(wire []byte, off int) {
	n := int(binary.LittleEndian.Uint32(wire[off+1:]))
	end := off + frameHdrLen + n
	binary.LittleEndian.PutUint32(wire[end:], crc32.Checksum(wire[off:end], castagnoli))
}

// TestStreamBatchTamperedPayload: a flipped payload byte whose frame CRC is
// recomputed is divergence, caught by the seal's Merkle root.
func TestStreamBatchTamperedPayload(t *testing.T) {
	wire, _, _ := twoBatchStream(t)
	bad := append([]byte(nil), wire...)
	first := headerLen // the first entry frame
	bad[first+frameHdrLen+entryHdrLen] ^= 0x01
	refreshCRC(bad, first)
	_, err := NewStreamReader(bytes.NewReader(bad)).ReadBatch()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "merkle root mismatch") {
		t.Fatalf("tampered payload returned %v, want an ErrCorrupt merkle root mismatch", err)
	}
}

// TestStreamBatchWrongHeader: a segment header (or any kind but the
// stream's) is refused as corrupt, another version as ErrVersion.
func TestStreamBatchWrongHeader(t *testing.T) {
	wire, _, _ := twoBatchStream(t)
	seg := append([]byte(nil), wire...)
	binary.LittleEndian.PutUint16(seg[6:8], kindSeg)
	if _, err := NewStreamReader(bytes.NewReader(seg)).ReadBatch(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment-kind header returned %v, want ErrCorrupt", err)
	}
	ver := append([]byte(nil), wire...)
	binary.LittleEndian.PutUint16(ver[4:6], walVersion+1)
	if _, err := NewStreamReader(bytes.NewReader(ver)).ReadBatch(); !errors.Is(err, ErrVersion) {
		t.Fatalf("future-version header returned %v, want ErrVersion", err)
	}
}

// TestStreamBatchReadsExactlyOne: ReadBatch stops at the seal and leaves
// what follows — an ack, or the next batch — unread.
func TestStreamBatchReadsExactlyOne(t *testing.T) {
	wire, split, _ := twoBatchStream(t)
	r := bytes.NewReader(wire)
	if _, err := NewStreamReader(r).ReadBatch(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(wire)-split {
		t.Fatalf("reader left %d bytes, want the second batch's %d", r.Len(), len(wire)-split)
	}
}

// TestStreamBatchRejectsDamage: a flipped bit anywhere in the stream fails
// the read; nothing damaged is ever returned as a batch.
func TestStreamBatchRejectsDamage(t *testing.T) {
	wire, _, _ := twoBatchStream(t)
	for off := 0; off < len(wire); off++ {
		bad := append([]byte(nil), wire...)
		bad[off] ^= 0x40
		if _, err := readAll(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("flip at %d returned %v, want ErrCorrupt", off, err)
		}
	}
}

// TestStreamBatchMalformed: well-framed records that do not form a batch —
// a seal over nothing, a footer, a stream not starting at seq 1, a gap
// between batches, a seal over the wrong range — are corruption.
func TestStreamBatchMalformed(t *testing.T) {
	entry := func(dst []byte, seq uint64) []byte {
		out, _ := appendEntry(dst, KindSession, seq, []byte("x"))
		return out
	}
	seal := func(dst []byte, seqs ...uint64) []byte {
		var b batch
		for _, seq := range seqs {
			_, payload := appendEntry(nil, KindSession, seq, []byte("x"))
			b.add(seq, payload)
		}
		pay, _, _, _ := b.seal()
		return appendFrame(dst, recSeal, pay[:])
	}
	hdr := appendHeader(nil, kindStream)
	var footer [footerPayLen]byte
	cases := map[string][]byte{
		"empty seal":      appendFrame(bytes.Clone(hdr), recSeal, make([]byte, sealPayLen)),
		"footer":          appendFrame(entry(bytes.Clone(hdr), 1), recFooter, footer[:]),
		"starts at seq 2": seal(entry(bytes.Clone(hdr), 2), 2),
		"gap":             seal(entry(seal(entry(bytes.Clone(hdr), 1), 1), 3), 3),
		"wrong range":     seal(entry(entry(bytes.Clone(hdr), 1), 2), 2),
	}
	for name, wire := range cases {
		if _, err := readAll(bytes.NewReader(wire)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: returned %v, want ErrCorrupt", name, err)
		}
	}
}

// TestStreamBatchForgedLengthAllocatesReceivedBytes: a frame declaring the
// maximum record length and then ending costs the reader what it was sent.
func TestStreamBatchForgedLengthAllocatesReceivedBytes(t *testing.T) {
	wire := appendHeader(nil, kindStream)
	wire = append(wire, recEntry)
	wire = binary.LittleEndian.AppendUint32(wire, maxRecordLen)
	wire = append(wire, make([]byte, 1000)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewStreamReader(bytes.NewReader(wire)).ReadBatch()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged length returned %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte stream declaring %d bytes allocated %d", len(wire), maxRecordLen, got)
	}
}

// FuzzReadBatch: no input panics the stream reader, memory stays in
// proportion to the bytes supplied, and every accepted batch has a seal
// that matches its entries and seqs contiguous from 1 across batches.
func FuzzReadBatch(f *testing.F) {
	wire, _, _ := twoBatchStream(f)
	f.Add(wire)
	segs, _ := filepath.Glob(filepath.Join("..", "serve", "testdata", "journal", "wal", "*.seg"))
	for _, path := range segs {
		seg, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
		asStream := bytes.Clone(seg)
		binary.LittleEndian.PutUint16(asStream[6:8], kindStream)
		f.Add(asStream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readAll(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("reader stopped without an error")
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32*uint64(len(data))+1<<20 {
			t.Fatalf("%d input bytes allocated %d", len(data), alloc)
		}
		next := uint64(1)
		for _, b := range got {
			if len(b.Entries) == 0 || b.First != next || b.Last != b.First+uint64(len(b.Entries))-1 {
				t.Fatalf("batch [%d,%d] of %d entries accepted after seq %d", b.First, b.Last, len(b.Entries), next-1)
			}
			leaves := make([][HashSize]byte, len(b.Entries))
			for i, e := range b.Entries {
				if e.Seq != b.First+uint64(i) {
					t.Fatalf("entry %d of batch [%d,%d] has seq %d", i, b.First, b.Last, e.Seq)
				}
				_, payload := appendEntry(nil, e.Kind, e.Seq, e.Data)
				leaves[i] = HashLeaf(payload)
			}
			if Root(leaves) != b.Root {
				t.Fatalf("batch [%d,%d] accepted with a root its entries do not hash to", b.First, b.Last)
			}
			next = b.Last + 1
		}
	})
}
