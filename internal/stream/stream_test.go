package stream

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleRoundTrip(t *testing.T) {
	s := Sample{Seq: 42, Timestamp: 1.5, Values: []float64{1, -2, 3.25}}
	var got Sample
	raw, _ := s.MarshalBinary()
	if err := got.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq || got.Timestamp != s.Timestamp || len(got.Values) != 3 {
		t.Fatalf("round trip mangled: %+v", got)
	}
	for i := range s.Values {
		if got.Values[i] != s.Values[i] {
			t.Fatalf("value %d: %v != %v", i, got.Values[i], s.Values[i])
		}
	}
}

func TestSampleRoundTripProperty(t *testing.T) {
	f := func(seq uint64, ts float64, raw []float64) bool {
		if len(raw) > 1000 {
			raw = raw[:1000]
		}
		s := Sample{Seq: seq, Timestamp: ts, Values: raw}
		var got Sample
		enc, _ := s.MarshalBinary()
		if err := got.UnmarshalBinary(enc); err != nil {
			return false
		}
		if got.Seq != seq || len(got.Values) != len(raw) {
			return false
		}
		if !math.IsNaN(ts) && got.Timestamp != ts {
			return false
		}
		for i := range raw {
			a, b := got.Values[i], raw[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleUnmarshalErrors(t *testing.T) {
	var s Sample
	if err := s.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Fatal("truncated header should error")
	}
	good, _ := (&Sample{Seq: 1, Values: []float64{1, 2}}).MarshalBinary()
	if err := s.UnmarshalBinary(good[:len(good)-4]); err == nil {
		t.Fatal("truncated payload should error")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 9
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Fatal("wrong tag should error")
	}
}

func TestWireSize(t *testing.T) {
	if WireSize(16) != 19+128 {
		t.Fatalf("WireSize(16)=%d", WireSize(16))
	}
	s := Sample{Values: make([]float64, 16)}
	raw, _ := s.MarshalBinary()
	if len(raw) != WireSize(16) {
		t.Fatal("MarshalBinary size disagrees with WireSize")
	}
}

func TestRingFIFO(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Push(Sample{Seq: uint64(i)})
	}
	for i := 0; i < 3; i++ {
		s, ok := r.Pop()
		if !ok || s.Seq != uint64(i) {
			t.Fatalf("pop %d: got %+v ok=%v", i, s, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("empty ring should report !ok")
	}
}

func TestRingOverwriteOldest(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Push(Sample{Seq: uint64(i)})
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped=%d want 2", r.Dropped())
	}
	got := r.Drain()
	if len(got) != 3 || got[0].Seq != 2 || got[2].Seq != 4 {
		t.Fatalf("drain after overflow: %+v", got)
	}
}

func TestRingFIFOProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		r := NewRing(8)
		var model []uint64
		next := uint64(0)
		for _, op := range ops {
			if op%3 == 0 && len(model) > 0 {
				s, ok := r.Pop()
				if !ok || s.Seq != model[0] {
					return false
				}
				model = model[1:]
			} else {
				r.Push(Sample{Seq: next})
				model = append(model, next)
				next++
				if len(model) > 8 {
					model = model[1:]
				}
			}
			if r.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRingPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRing(0)
}

func TestVirtualClockOffsetDrift(t *testing.T) {
	a := NewVirtualClock(1.0, 0)
	b := NewVirtualClock(0, 0)
	off := a.OffsetTo(b)
	if math.Abs(off-1.0) > 0.05 {
		t.Fatalf("offset %v want ~1.0", off)
	}
	v := a.Now()
	host := a.ToHost(v)
	if math.Abs(host-(v-1.0)) > 0.05 {
		t.Fatalf("ToHost inversion broken: %v vs %v", host, v-1.0)
	}
}

func TestLSLEndToEnd(t *testing.T) {
	src := NewVirtualClock(0.02, 0)
	dst := NewVirtualClock(0, 0)
	out, err := NewLSLOutlet(src, LinkConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := NewLSLInlet(out.Addr(), dst, 128, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := out.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		out.Push([]float64{float64(i), 2 * float64(i)})
		time.Sleep(time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for in.Ring.Len() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	got := in.Ring.Drain()
	if len(got) != n {
		t.Fatalf("delivered %d/%d samples", len(got), n)
	}
	for i, s := range got {
		if s.Seq != uint64(i) {
			t.Fatalf("out of order: pos %d seq %d", i, s.Seq)
		}
		if s.Values[1] != 2*float64(i) {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestLSLClockSyncConverges(t *testing.T) {
	const trueOffset = 0.05
	src := NewVirtualClock(trueOffset, 0)
	dst := NewVirtualClock(0, 0)
	out, err := NewLSLOutlet(src, LinkConfig{DelayMean: 1e-3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := NewLSLInlet(out.Addr(), dst, 16, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := out.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if off, ok := in.ClockOffset(); ok && math.Abs(off-trueOffset) < 0.01 {
			return // converged
		}
		time.Sleep(20 * time.Millisecond)
	}
	off, ok := in.ClockOffset()
	t.Fatalf("sync failed to converge: estimate %v (ok=%v) want ~%v", off, ok, trueOffset)
}

func TestUDPEndToEndLossless(t *testing.T) {
	src := NewVirtualClock(0, 0)
	dst := NewVirtualClock(0, 0)
	in, err := NewUDPInlet(dst, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := NewUDPOutlet(in.Addr(), src, LinkConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		out.Push([]float64{float64(i)})
		time.Sleep(500 * time.Microsecond)
	}
	out.Close()
	deadline := time.Now().Add(time.Second)
	for in.Ring.Len() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := in.Ring.Len(); got < n*95/100 {
		t.Fatalf("loopback UDP delivered only %d/%d", got, n)
	}
}

func TestUDPSimulatedLoss(t *testing.T) {
	src := NewVirtualClock(0, 0)
	dst := NewVirtualClock(0, 0)
	in, err := NewUDPInlet(dst, 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := NewUDPOutlet(in.Addr(), src, LinkConfig{LossProb: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		out.Push([]float64{1})
	}
	out.Close()
	time.Sleep(100 * time.Millisecond)
	dropped := out.DroppedBySim
	if dropped < n/3 || dropped > 2*n/3 {
		t.Fatalf("50%% loss dropped %d/%d", dropped, n)
	}
	if in.Ring.Len() > int(uint64(n)-dropped) {
		t.Fatalf("received %d but only %d were sent", in.Ring.Len(), uint64(n)-dropped)
	}
}

// TestFig4Shape verifies the qualitative result of Figure 4: LSL beats UDP on
// synchronisation and reliability, UDP wins bandwidth efficiency.
func TestFig4Shape(t *testing.T) {
	cfg := DefaultComparisonConfig()
	cfg.Samples = 150 // keep CI fast; full size used by the bench harness
	lsl, udp, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lsl.SyncErrorMs >= udp.SyncErrorMs {
		t.Fatalf("LSL sync error %.3f ms should beat UDP %.3f ms", lsl.SyncErrorMs, udp.SyncErrorMs)
	}
	if lsl.DeliveredFrac < udp.DeliveredFrac {
		t.Fatalf("LSL reliability %.3f should be >= UDP %.3f", lsl.DeliveredFrac, udp.DeliveredFrac)
	}
	if lsl.DeliveredFrac < 0.999 {
		t.Fatalf("LSL must deliver everything, got %.4f", lsl.DeliveredFrac)
	}
	if udp.BandwidthEfficiency <= lsl.BandwidthEfficiency {
		t.Fatalf("UDP bw efficiency %.3f should beat LSL %.3f", udp.BandwidthEfficiency, lsl.BandwidthEfficiency)
	}
	scores := lsl.Scores()
	for _, axis := range []string{"latency", "sample_rate", "synchronization", "low_jitter", "reliability", "bandwidth_efficiency"} {
		v, ok := scores[axis]
		if !ok {
			t.Fatalf("missing score axis %s", axis)
		}
		if v < 0 || v > 10 {
			t.Fatalf("score %s=%v out of [0,10]", axis, v)
		}
	}
}

// TestArrivalTrackingBounded: a million recorded arrivals leave each inlet's
// arrival table at its ring capacity, and ArrivalTime still answers for
// every sample the ring holds (the samples the Figure-4 transport
// experiment looks up).
func TestArrivalTrackingBounded(t *testing.T) {
	const capacity, n = 64, 1_000_000
	udp := &UDPInlet{Ring: NewRing(capacity), arrivals: newArrivalLog(capacity)}
	lsl := &LSLInlet{Ring: NewRing(capacity), arrivals: newArrivalLog(capacity)}
	for _, in := range []struct {
		name    string
		ring    *Ring
		log     *arrivalLog
		arrival func(uint64) (float64, bool)
	}{
		{"udp", udp.Ring, udp.arrivals, udp.ArrivalTime},
		{"lsl", lsl.Ring, lsl.arrivals, lsl.ArrivalTime},
	} {
		for seq := uint64(0); seq < n; seq++ {
			in.log.record(seq, float64(seq)/250)
			in.ring.Push(Sample{Seq: seq})
		}
		if len(in.log.slots) != capacity {
			t.Fatalf("%s: %d arrival slots after %d samples, want %d", in.name, len(in.log.slots), n, capacity)
		}
		held := in.ring.Snapshot()
		if len(held) != capacity {
			t.Fatalf("%s: ring holds %d samples, want %d", in.name, len(held), capacity)
		}
		for _, s := range held {
			if at, ok := in.arrival(s.Seq); !ok || at != float64(s.Seq)/250 {
				t.Fatalf("%s: ArrivalTime(%d) = %v, %v; want %v", in.name, s.Seq, at, ok, float64(s.Seq)/250)
			}
		}
		if _, ok := in.arrival(held[0].Seq - 1); ok {
			t.Fatalf("%s: ArrivalTime answered for seq %d, which left the ring", in.name, held[0].Seq-1)
		}
	}
}
