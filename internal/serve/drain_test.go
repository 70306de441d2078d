package serve

import (
	"math/rand"
	"testing"
	"time"

	"cognitivearm/internal/board"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/stream"
)

// ringFeed pushes a deterministic EEG stream into a session's inlet ring,
// cycling a small pre-generated set of channel vectors (the Windower copies
// values on push, so reuse is safe) under ever-increasing sequence numbers.
type ringFeed struct {
	ring *stream.Ring
	vals [][]float64
	seq  uint64
}

func newRingFeed(capacity int) *ringFeed {
	gen := eeg.NewGenerator(eeg.NewSubject(0), 5)
	f := &ringFeed{ring: stream.NewRing(capacity), vals: make([][]float64, 256)}
	for i := range f.vals {
		raw := gen.Next(eeg.Action((i / 64) % 3))
		f.vals[i] = append([]float64(nil), raw[:]...)
	}
	return f
}

func (f *ringFeed) push(n int) {
	for i := 0; i < n; i++ {
		f.ring.Push(stream.Sample{Seq: f.seq, Values: f.vals[f.seq%uint64(len(f.vals))]})
		f.seq++
	}
}

// ringHub admits one ring-fed session on a one-shard 15 Hz hub.
func ringHub(t *testing.T, capacity int) (*Hub, *ringFeed, SessionID) {
	t.Helper()
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Stop)
	feed := newRingFeed(capacity)
	id, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: RingSource{Ring: feed.ring}, Norm: p.NormFor(0)})
	if err != nil {
		t.Fatal(err)
	}
	return hub, feed, id
}

// windowSize is the session's W, the one-window staleness bound.
func windowSize(hub *Hub) int {
	sh := hub.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, sess := range sh.sessions {
		return sess.win.Size()
	}
	return 0
}

// TestDrainBoundsDriftingClient: a client whose clock runs 2% fast or slow
// for 10 simulated minutes never leaves more than one window pending after a
// tick, never has a sample shed, and has every sample it sent ingested. With
// the fixed 125/15 quota alone, the fast client's backlog grows by ~2.5
// samples a second (1500 by the end).
func TestDrainBoundsDriftingClient(t *testing.T) {
	const ticks = 10 * 60 * 15
	for _, drift := range []float64{+0.02, -0.02} {
		hub, feed, _ := ringHub(t, 4096)
		w := windowSize(hub)
		shed := hub.tel.shed.Value()
		var acc float64
		pushed := 0
		for i := 0; i < ticks; i++ {
			acc += 125 * (1 + drift) / 15
			n := int(acc)
			acc -= float64(n)
			feed.push(n)
			pushed += n
			hub.TickAll()
			if got := feed.ring.Len(); got > w {
				t.Fatalf("drift %+.0f%%: %d samples pending after tick %d, bound %d", 100*drift, got, i, w)
			}
		}
		if got := hub.tel.shed.Value() - shed; got != 0 {
			t.Fatalf("drift %+.0f%%: shed %d samples, want 0", 100*drift, got)
		}
		if got := hub.Snapshot().SamplesIn; got != uint64(pushed-feed.ring.Len()) {
			t.Fatalf("drift %+.0f%%: ingested %d samples, want %d", 100*drift, got, pushed-feed.ring.Len())
		}
	}
}

// TestDrainChunkedJitteredSenderNeverSheds: the benchmark's sender shape — 5
// samples every 40 ms, each chunk delayed by up to 30 ms of jitter, its clock
// 0.8% fast — against 15 Hz ticks. Every tick leaves at most one window
// pending and nothing is ever shed.
func TestDrainChunkedJitteredSenderNeverSheds(t *testing.T) {
	hub, feed, _ := ringHub(t, 4096)
	w := windowSize(hub)
	shed := hub.tel.shed.Value()
	rng := rand.New(rand.NewSource(9))
	const chunk, ticks = 5, 10 * 60 * 15
	period := 40 * time.Millisecond * 1000 / 1008
	arrive := func(c int) time.Duration {
		return time.Duration(c)*period + time.Duration(rng.Int63n(int64(30*time.Millisecond)))
	}
	next, at := 0, arrive(0)
	pushed := 0
	for i := 1; i <= ticks; i++ {
		now := time.Duration(i) * time.Second / 15
		for at <= now {
			feed.push(chunk)
			pushed += chunk
			next++
			at = arrive(next)
		}
		hub.TickAll()
		if got := feed.ring.Len(); got > w {
			t.Fatalf("%d samples pending after tick %d, bound %d", got, i, w)
		}
	}
	if got := hub.tel.shed.Value() - shed; got != 0 {
		t.Fatalf("shed %d samples, want 0", got)
	}
	if got := hub.Snapshot().SamplesIn; got != uint64(pushed-feed.ring.Len()) {
		t.Fatalf("ingested %d samples, want %d", got, pushed-feed.ring.Len())
	}
}

// TestDrainShedsBurstPastOneWindow: a burst of 3·W samples is drained in one
// tick, the oldest 2·W shed unfiltered and counted on
// cogarm_serve_samples_shed_total and a shed event, and the newest W fill the
// window, so the session decodes on that very tick.
func TestDrainShedsBurstPastOneWindow(t *testing.T) {
	hub, feed, id := ringHub(t, 4096)
	w := windowSize(hub)
	shed := hub.tel.shed.Value()
	feed.push(3 * w)
	hub.TickAll()
	if got := hub.tel.shed.Value() - shed; got != uint64(2*w) {
		t.Fatalf("shed %d samples, want %d", got, 2*w)
	}
	if n := feed.ring.Len(); n != 0 {
		t.Fatalf("%d samples left pending, want 0", n)
	}
	snap := hub.Snapshot()
	if snap.SamplesIn != uint64(w) {
		t.Fatalf("ingested %d samples, want the newest %d", snap.SamplesIn, w)
	}
	if st, _ := hub.Session(id); st.Decoded != 1 {
		t.Fatalf("decoded %d labels, want 1 from the kept window", st.Decoded)
	}
	var found bool
	for _, ev := range obs.DefaultEvents().Snapshot(nil) {
		if ev.Type == obs.EvShed && ev.Session == uint64(id) && ev.A == int64(2*w) {
			found = true
		}
	}
	if !found {
		t.Fatal("no shed event recorded for the session")
	}
}

// TestDrainOnDemandSourceKeepsQuota: a synthetic board has no backlog, so its
// session still reads exactly the fractional 125/15 quota — 8, 8, 9, … —
// every tick.
func TestDrainOnDemandSourceKeepsQuota(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	b := board.NewSyntheticCyton(eeg.NewSubject(0), 3, false)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: b, Norm: p.NormFor(0)}); err != nil {
		t.Fatal(err)
	}
	var acc float64
	var prev uint64
	for i := 0; i < 300; i++ {
		acc += 125.0 / 15
		want := int(acc)
		acc -= float64(want)
		if i < 9 && want != []int{8, 8, 9}[i%3] {
			t.Fatalf("reference quota %d at tick %d", want, i)
		}
		hub.TickAll()
		in := hub.Snapshot().SamplesIn
		if got := int(in - prev); got != want {
			t.Fatalf("tick %d read %d samples, want quota %d", i, got, want)
		}
		prev = in
	}
	if prev != 2500 {
		t.Fatalf("300 ticks read %d samples, want 2500", prev)
	}
}

func TestMissedTicks(t *testing.T) {
	const p = 10 * time.Millisecond
	for _, c := range []struct {
		gap, period time.Duration
		want        uint64
	}{
		{0, p, 0},
		{-p, p, 0},
		{p, p, 0},
		{p * 14 / 10, p, 0},
		{p * 16 / 10, p, 1},
		{2 * p, p, 1},
		{5 * p, p, 4},
		{5*p + 4*time.Millisecond, p, 4},
		{time.Second, 0, 0},
	} {
		if got := missedTicks(c.gap, c.period); got != c.want {
			t.Errorf("missedTicks(%v, %v) = %d, want %d", c.gap, c.period, got, c.want)
		}
	}
}

// TestMissedTicksCounted holds a running shard's lock across several tick
// periods: the ticker drops the ticks the loop could not take, and
// cogarm_serve_ticks_missed_total counts them.
func TestMissedTicksCounted(t *testing.T) {
	reg, _ := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 1, TickHz: 100, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	hub.Start()
	time.Sleep(50 * time.Millisecond)
	missed := hub.tel.ticksMissed.Value()
	sh := hub.shards[0]
	sh.mu.Lock()
	//cogarm:allow nolockblock -- the stall under the shard lock is what this test injects
	time.Sleep(100 * time.Millisecond) // ten periods
	sh.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for hub.tel.ticksMissed.Value() == missed && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := hub.tel.ticksMissed.Value() - missed; got < 1 {
		t.Fatalf("missed-tick counter moved by %d after a ten-period stall, want ≥ 1", got)
	}
}
