package stream

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"testing"
	"time"
)

func TestMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, []byte("x"), bytes.Repeat([]byte{0xAB}, 70000)}
	for _, p := range payloads {
		if err := WriteMsg(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d mangled: %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestMsgRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxMsgLen+1)
	if _, err := ReadMsg(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized length accepted")
	}
	if err := WriteMsg(&bytes.Buffer{}, make([]byte, MaxMsgLen+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestMsgRejectsTornPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, []byte("complete message")); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadMsg(bytes.NewReader(torn)); err == nil {
		t.Fatal("torn message accepted")
	}
}

// TestMsgForgedLengthAllocatesReceivedBytes: a header that declares the
// full MaxMsgLen and is then followed by EOF must cost the reader what it
// was sent, not the 256 MiB it was promised.
func TestMsgForgedLengthAllocatesReceivedBytes(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxMsgLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadMsgBuf(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("message torn after its header accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a 4-byte forged header allocated %d bytes, want under 1 MiB", got)
	}
}

// FuzzReadMsgBuf: no input panics the reader, and every payload survives a
// WriteMsg/ReadMsgBuf round trip, with or without a reuse buffer.
func FuzzReadMsgBuf(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte("x"), 8)
	f.Add(bytes.Repeat([]byte{0xAB}, 70000), 16)
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f, 1, 2, 3}, 0)
	f.Fuzz(func(t *testing.T, p []byte, bufCap int) {
		// Arbitrary bytes as a framed stream: must not panic.
		_, _ = ReadMsgBuf(bytes.NewReader(p), nil)

		var wire bytes.Buffer
		if err := WriteMsg(&wire, p); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, bufCap&0xffff)
		got, err := ReadMsgBuf(&wire, buf)
		if err != nil {
			t.Fatalf("round trip of %d bytes: %v", len(p), err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("round trip mangled %d bytes into %d", len(p), len(got))
		}
		if wire.Len() != 0 {
			t.Fatalf("reader left %d bytes of its own message unread", wire.Len())
		}
	})
}

// TestUDPInletDropsMalformed feeds an inlet garbage alongside valid samples
// and verifies the garbage is counted and dropped while the valid data flows:
// the hardening contract of an inlet on an open port.
func TestUDPInletDropsMalformed(t *testing.T) {
	in, err := NewUDPInlet(NewVirtualClock(0, 0), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	conn, err := net.Dial("udp", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	valid := Sample{Seq: 7, Timestamp: 1.25, Values: []float64{1, 2, 3}}
	frame, _ := valid.MarshalBinary()

	// Oversized channel claim: header says MaxChannels+1 channels.
	overClaim := make([]byte, WireSize(MaxChannels+1))
	overClaim[0] = msgData
	binary.LittleEndian.PutUint16(overClaim[17:], uint16(MaxChannels+1))
	// Trailing garbage after a well-formed sample.
	padded := append(append([]byte(nil), frame...), 0xDE, 0xAD)
	// Truncated payload: claims 3 channels, carries 1.
	short := append([]byte(nil), frame[:headerSize+8]...)

	garbage := [][]byte{
		[]byte("not a sample"),   // wrong tag, undersized
		{msgSyncReq, 0, 0, 0, 0}, // non-data tag
		overClaim,                // channel bound
		padded,                   // size mismatch (trailing bytes)
		short,                    // size mismatch (truncated)
	}
	for _, g := range garbage {
		if _, err := conn.Write(g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && (in.Ring.Len() < 1 || in.DroppedFrames() < uint64(len(garbage))) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := in.DroppedFrames(); got != uint64(len(garbage)) {
		t.Fatalf("dropped %d frames, want %d", got, len(garbage))
	}
	got := in.Ring.Drain()
	if len(got) != 1 || got[0].Seq != 7 || len(got[0].Values) != 3 ||
		math.Abs(got[0].Values[2]-3) > 0 {
		t.Fatalf("valid sample mangled or lost: %+v", got)
	}
}

// waitFor polls cond for up to two seconds; inlets deliver on their own
// reader goroutines.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// TestUDPInletDropsNonFinite: a datagram holding a NaN or ±Inf is dropped
// before it takes a ring slot, counted like any malformed frame, and the next
// finite sample is accepted.
func TestUDPInletDropsNonFinite(t *testing.T) {
	in, err := NewUDPInlet(NewVirtualClock(0, 0), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	conn, err := net.Dial("udp", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(s Sample) {
		t.Helper()
		frame, _ := s.MarshalBinary()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}

	bad := []Sample{
		{Values: []float64{1, math.NaN(), 3}},
		{Values: []float64{math.Inf(1), 2, 3}},
		{Values: []float64{1, 2, math.Inf(-1)}},
		{Timestamp: math.NaN(), Values: []float64{1, 2, 3}},
	}
	seq := uint64(0)
	for i, b := range bad {
		send(Sample{Seq: seq, Values: []float64{1, 2, 3}})
		seq++
		if !waitFor(func() bool { return in.Ring.Len() == i+1 }) {
			t.Fatalf("finite sample %d not accepted", i)
		}
		dropsBefore := streamTel().udpDrops.Value()
		b.Seq = seq
		seq++
		send(b)
		if !waitFor(func() bool {
			return in.DroppedFrames() == uint64(i+1) && streamTel().udpDrops.Value() > dropsBefore
		}) {
			t.Fatalf("non-finite sample %+v not counted: %d drops", b, in.DroppedFrames())
		}
		if got := streamTel().udpDrops.Value() - dropsBefore; got != 1 {
			t.Fatalf("udp drop counter moved by %d, want 1", got)
		}
		if got := in.Ring.Len(); got != i+1 {
			t.Fatalf("non-finite sample took a ring slot: len %d, want %d", got, i+1)
		}
	}
	send(Sample{Seq: seq, Values: []float64{4, 5, 6}})
	if !waitFor(func() bool { return in.Ring.Len() == len(bad)+1 }) {
		t.Fatal("finite sample after the non-finite ones not accepted")
	}
	for _, s := range in.Ring.Drain() {
		if !s.finite() {
			t.Fatalf("ring holds a non-finite sample: %+v", s)
		}
	}
}

// TestLSLInletDropsNonFinite is the LSL counterpart: the reader refuses a
// non-finite data frame and keeps streaming.
func TestLSLInletDropsNonFinite(t *testing.T) {
	out, err := NewLSLOutlet(NewVirtualClock(0, 0), LinkConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := NewLSLInlet(out.Addr(), NewVirtualClock(0, 0), 16, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := out.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	out.Push([]float64{1, 2})
	out.Push([]float64{math.NaN(), 2})
	out.Push([]float64{3, 4})
	if !waitFor(func() bool { return in.Ring.Len() == 2 && in.DroppedFrames() == 1 }) {
		t.Fatalf("ring %d samples, %d drops; want 2 and 1", in.Ring.Len(), in.DroppedFrames())
	}
	got := in.Ring.Drain()
	if got[0].Seq != 0 || got[1].Seq != 2 {
		t.Fatalf("kept seqs %d,%d, want 0,2", got[0].Seq, got[1].Seq)
	}
}
