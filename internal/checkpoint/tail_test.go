package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"

	"cognitivearm/internal/wal"
)

// tailState decorates testState with the Refs view a replication capture
// carries: one ref per live session, volatile fields included.
func tailState(t *testing.T) *FleetState {
	t.Helper()
	state := testState(t)
	for i := range state.Sessions {
		rec := &state.Sessions[i]
		state.Manifest.Refs = append(state.Manifest.Refs, SessionRef{
			ID: rec.ID, Ver: rec.Ver, SampleAcc: rec.SampleAcc, IdleTicks: rec.IdleTicks,
		})
	}
	return state
}

func TestTailRoundTripAndModelDedup(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTailWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	state := tailState(t)

	models1, sessions1, root1, err := tw.WriteBatch(state)
	if err != nil {
		t.Fatal(err)
	}
	if models1 != 2 || sessions1 != 2 {
		t.Fatalf("first batch wrote %d models / %d sessions, want 2 / 2", models1, sessions1)
	}
	if root1 == ([wal.HashSize]byte{}) {
		t.Fatal("first batch sealed with a zero merkle root")
	}
	// Second interval: only one session is dirty, and both models already
	// rode the tail — they must not be re-sent.
	delta := tailState(t)
	delta.Sessions = delta.Sessions[:1]
	models2, sessions2, root2, err := tw.WriteBatch(delta)
	if err != nil {
		t.Fatal(err)
	}
	if models2 != 0 || sessions2 != 1 {
		t.Fatalf("second batch wrote %d models / %d sessions, want 0 / 1 (models deduplicated)", models2, sessions2)
	}
	if tw.Epoch() != 2 {
		t.Fatalf("writer epoch = %d, want 2", tw.Epoch())
	}

	tr, err := NewTailReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := tr.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if b1.Manifest.Seq != 1 {
		t.Fatalf("first batch epoch = %d, want 1", b1.Manifest.Seq)
	}
	if len(b1.Models) != 2 || len(b1.Sessions) != 2 {
		t.Fatalf("first batch decoded %d models / %d sessions, want 2 / 2", len(b1.Models), len(b1.Sessions))
	}
	if b1.TailRoot != root1 {
		t.Fatalf("first batch verified root %x, sender framed %x", b1.TailRoot, root1)
	}
	if !reflect.DeepEqual(b1.Sessions, state.Sessions) {
		t.Fatalf("session records mangled through the tail:\n got %+v\nwant %+v", b1.Sessions, state.Sessions)
	}
	if !reflect.DeepEqual(b1.Manifest.Refs, state.Manifest.Refs) {
		t.Fatalf("live-view refs mangled through the tail: %+v", b1.Manifest.Refs)
	}
	if !reflect.DeepEqual(b1.ModelMACs, state.ModelMACs) {
		t.Fatalf("model MACs mangled: %+v", b1.ModelMACs)
	}
	b2, err := tr.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if b2.Manifest.Seq != 2 {
		t.Fatalf("second batch epoch = %d, want 2", b2.Manifest.Seq)
	}
	if len(b2.Models) != 0 || len(b2.Sessions) != 1 {
		t.Fatalf("second batch decoded %d models / %d sessions, want 0 / 1", len(b2.Models), len(b2.Sessions))
	}
	if len(b2.Manifest.Refs) != 2 {
		t.Fatalf("second batch carries %d refs, want the full live view of 2", len(b2.Manifest.Refs))
	}
	if b2.TailRoot != root2 {
		t.Fatalf("second batch verified root %x, sender framed %x", b2.TailRoot, root2)
	}
	if root1 == root2 {
		t.Fatal("distinct batches sealed with the same merkle root")
	}
	// The sender closed cleanly between batches: io.EOF, not corruption.
	if _, err := tr.ReadBatch(); err != io.EOF {
		t.Fatalf("clean tail end returned %v, want io.EOF", err)
	}
}

func TestTailWriterRejectsUnresolvedState(t *testing.T) {
	tw, err := NewTailWriter(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tw.WriteBatch(nil); err == nil {
		t.Fatal("tail accepted a nil state")
	}
}

func TestTailTruncationIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTailWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tw.WriteBatch(tailState(t)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// A tear anywhere inside the batch must wrap ErrCorrupt — never a clean
	// EOF, never a hang, never a panic.
	for _, cut := range []int{headerLen + 2, headerLen + 40, len(full) / 2, len(full) - 2} {
		tr, err := NewTailReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: header rejected: %v", cut, err)
		}
		if _, err := tr.ReadBatch(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: ReadBatch returned %v, want ErrCorrupt", cut, err)
		}
	}
	// A tear inside the stream header fails construction.
	if _, err := NewTailReader(bytes.NewReader(full[:headerLen-2])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn header returned %v, want ErrCorrupt", err)
	}
}

// TestTailReaderDetectsDivergence: a seal whose root disagrees with the
// batch's records must be refused as divergence. The CRC of the tampered
// record is recomputed so it passes framing — only the Merkle check can
// catch it, which is exactly the attack/bitrot class the seal exists for.
func TestTailReaderDetectsDivergence(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTailWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tw.WriteBatch(tailState(t)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	const sealFrame = 5 + 4 + wal.HashSize + 4
	frame := full[len(full)-sealFrame:]
	if frame[0] != RecSeal {
		t.Fatalf("stream does not end in a seal record (type %d)", frame[0])
	}
	frame[5+4+3] ^= 0x01 // flip one byte of the framed root
	crc := crc32.Update(0, castagnoli, frame[:5+4+wal.HashSize])
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc)

	tr, err := NewTailReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.ReadBatch()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered seal returned %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered seal error %q does not name divergence", err)
	}
}

func TestTailReaderRejectsNonManifestBatch(t *testing.T) {
	var buf bytes.Buffer
	fw, err := newFileWriter(&buf, KindReplica)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.writeRecord(RecSession, []byte("not a manifest")); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTailReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ReadBatch(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("batch opening with a session record returned %v, want ErrCorrupt", err)
	}
}

func TestTailReaderRejectsWrongKind(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStream(&buf, testState(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTailReader(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tail reader accepted a KindStream header: %v", err)
	}
}

// TestReadStreamTornMidRecord: a migration stream torn at any byte offset —
// mid-header, mid-record-header, mid-payload, mid-CRC — must surface
// ErrCorrupt. This is the wire shape a killed sender leaves behind, and the
// receiver's rollback accounting (restore-the-remainder) depends on the tear
// being detected rather than misparsed.
func TestReadStreamTornMidRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStream(&buf, testState(t)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cuts := []int{
		headerLen - 2,   // inside the file header
		headerLen + 2,   // inside the manifest record's framing
		headerLen + 100, // inside the manifest payload
		len(full) / 4,   // inside a model payload
		len(full) / 2,   // deeper into the models
		len(full) - 40,  // inside a session record
		len(full) - 2,   // inside the final CRC
	}
	for _, cut := range cuts {
		if _, err := ReadStream(bytes.NewReader(full[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stream torn at byte %d returned %v, want ErrCorrupt", cut, err)
		}
	}
}
