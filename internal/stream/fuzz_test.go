package stream

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzParseDatagram holds the UDP inlet's parser to its contract on arbitrary
// bytes: it never panics, and a datagram it accepts is exactly one finite
// sample within MaxChannels that re-encodes to the same bytes.
//
//	go test -run '^$' -fuzz FuzzParseDatagram -fuzztime 15s ./internal/stream/
func FuzzParseDatagram(f *testing.F) {
	for _, s := range []Sample{
		{Seq: 42, Timestamp: 1.5, Values: []float64{1, -2, 3.25}},
		{Seq: 7, Timestamp: 1.25, Values: []float64{1, 2, 3}},
		{Seq: 1, Values: []float64{1, 2}},
		{Seq: 9},
		{Seq: 3, Values: []float64{math.NaN(), 1}},
		{Seq: 4, Timestamp: math.Inf(1), Values: []float64{1}},
	} {
		frame, _ := s.MarshalBinary()
		f.Add(frame)
		f.Add(append(frame, 0xDE, 0xAD))
		f.Add(frame[:len(frame)-1])
	}
	overClaim := make([]byte, WireSize(MaxChannels+1))
	binary.LittleEndian.PutUint16(overClaim[17:], uint16(MaxChannels+1))
	f.Add(overClaim)
	f.Add([]byte("not a sample"))
	f.Add([]byte{msgSyncReq, 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, buf []byte) {
		s, ok := parseDatagram(buf)
		if !ok {
			return
		}
		nch := len(s.Values)
		if nch > MaxChannels {
			t.Fatalf("accepted %d channels, limit %d", nch, MaxChannels)
		}
		if len(buf) != WireSize(nch) {
			t.Fatalf("accepted %d bytes for %d channels, want %d", len(buf), nch, WireSize(nch))
		}
		if !s.finite() {
			t.Fatalf("accepted a non-finite sample: %+v", s)
		}
		enc, _ := s.MarshalBinary()
		if !bytes.Equal(enc, buf) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", enc, buf)
		}
	})
}
