package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cognitivearm/internal/board"
	"cognitivearm/internal/core"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/stream"
)

// testFleet builds a registry with one fast shared RF decoder plus the
// pipeline that trained it.
func testFleet(t testing.TB) (*Registry, *core.Pipeline) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SubjectIDs = []int{0}
	cfg.SessionSeconds = 24
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	spec := models.Spec{Family: models.FamilyRF, WindowSize: cfg.WindowSize, Trees: 20, MaxDepth: 10}
	if _, _, err := reg.GetOrBuild("rf", func() (models.Classifier, int64, error) {
		clf, _, err := p.TrainModel(spec)
		return clf, models.OpsPerInference(spec), err
	}); err != nil {
		t.Fatal(err)
	}
	return reg, p
}

// boardSession returns a SessionConfig backed by an on-demand synthetic
// board for the given subject.
func boardSession(t testing.TB, p *core.Pipeline, subject int, seed uint64) SessionConfig {
	t.Helper()
	b := board.NewSyntheticCyton(eeg.NewSubject(subject), seed, false)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	return SessionConfig{ModelKey: "rf", Source: b, Norm: p.NormFor(subject)}
}

func TestRegistryBuildsOnce(t *testing.T) {
	reg := NewRegistry()
	var builds atomic.Int64
	var wg sync.WaitGroup
	clfs := make([]models.Classifier, 16)
	for i := range clfs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clf, _, err := reg.GetOrBuild("shared", func() (models.Classifier, int64, error) {
				builds.Add(1)
				cfg := core.DefaultConfig()
				cfg.SubjectIDs = []int{0}
				cfg.SessionSeconds = 24
				p, err := core.New(cfg)
				if err != nil {
					return nil, 0, err
				}
				spec := models.Spec{Family: models.FamilyRF, WindowSize: cfg.WindowSize, Trees: 5, MaxDepth: 6}
				c, _, err := p.TrainModel(spec)
				return c, 0, err
			})
			if err != nil {
				t.Error(err)
			}
			clfs[i] = clf
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("model built %d times, want 1", n)
	}
	for i := 1; i < len(clfs); i++ {
		if clfs[i] != clfs[0] {
			t.Fatalf("caller %d got a different classifier instance", i)
		}
	}
	if _, _, ok := reg.Get("shared"); !ok {
		t.Fatal("Get should see the resolved entry")
	}
	if _, _, ok := reg.Get("missing"); ok {
		t.Fatal("Get should miss unknown keys")
	}
}

func TestAdmissionControlAndEviction(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()

	var ids []SessionID
	for i := 0; i < 4; i++ {
		id, err := hub.Admit(boardSession(t, p, 0, uint64(i)+1))
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if _, err := hub.Admit(boardSession(t, p, 0, 99)); err != ErrFleetFull {
		t.Fatalf("5th admit: got %v, want ErrFleetFull", err)
	}
	if n := hub.Sessions(); n != 4 {
		t.Fatalf("sessions = %d, want 4", n)
	}
	if err := hub.Evict(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := hub.Evict(ids[0]); err == nil {
		t.Fatal("double evict should fail")
	}
	if n := hub.Sessions(); n != 3 {
		t.Fatalf("sessions after evict = %d, want 3", n)
	}
	if _, err := hub.Admit(boardSession(t, p, 0, 100)); err != nil {
		t.Fatalf("admit after evict: %v", err)
	}
	if _, err := hub.Admit(SessionConfig{ModelKey: "nope", Source: RingSource{Ring: stream.NewRing(4)}}); err == nil {
		t.Fatal("unknown model key should be rejected")
	}
}

func TestHubBatchesAcrossSessions(t *testing.T) {
	reg, p := testFleet(t)
	const sessions = 12
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 16, TickHz: 15, LatencyWindow: 64}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	var ids []SessionID
	for i := 0; i < sessions; i++ {
		id, err := hub.Admit(boardSession(t, p, 0, uint64(i)*7+1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// 100-sample window at 125/15 samples per tick needs ~12 ticks to fill.
	const ticks = 40
	for i := 0; i < ticks; i++ {
		hub.TickAll()
	}
	snap := hub.Snapshot()
	if snap.Sessions != sessions {
		t.Fatalf("snapshot sessions = %d, want %d", snap.Sessions, sessions)
	}
	if snap.Inferences == 0 {
		t.Fatal("no inferences recorded")
	}
	// Coalescing: a shard classifies all its ready sessions in one call, so
	// batch count must be far below inference count.
	if snap.Batches >= snap.Inferences {
		t.Fatalf("batching did not coalesce: %d batches for %d inferences", snap.Batches, snap.Inferences)
	}
	meanBatch := float64(snap.Inferences) / float64(snap.Batches)
	if meanBatch < float64(sessions)/float64(len(snap.Shards))-0.5 {
		t.Fatalf("mean batch %.2f, want ≈ sessions/shard = %d", meanBatch, sessions/len(snap.Shards))
	}
	if snap.TickP99Ms <= 0 {
		t.Fatal("p99 tick latency missing from snapshot")
	}
	for _, id := range ids {
		st, ok := hub.Session(id)
		if !ok {
			t.Fatalf("session %d missing", id)
		}
		if st.Decoded == 0 {
			t.Fatalf("session %d decoded nothing", id)
		}
	}
}

func TestIdleSessionsAreEvicted(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 8, TickHz: 15, MaxIdleTicks: 3, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	// A session that streams briefly, then goes silent (client died).
	died := stream.NewRing(64)
	gen := eeg.NewGenerator(eeg.NewSubject(0), 9)
	for i := 0; i < 20; i++ {
		raw := gen.Next(eeg.Idle)
		died.Push(stream.Sample{Seq: uint64(i), Values: append([]float64(nil), raw[:]...)})
	}
	if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: RingSource{Ring: died}, Norm: p.NormFor(0)}); err != nil {
		t.Fatal(err)
	}
	// A session admitted before its client ever connects: never fed, so the
	// idle clock must not start.
	waiting := stream.NewRing(32)
	neverFed, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: RingSource{Ring: waiting}, Norm: p.NormFor(0)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := hub.Admit(boardSession(t, p, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		hub.TickAll()
	}
	if n := hub.Sessions(); n != 2 {
		t.Fatalf("sessions = %d, want 2 (fed-then-silent evicted, waiting + live survive)", n)
	}
	if _, ok := hub.Session(live); !ok {
		t.Fatal("live session should survive")
	}
	if _, ok := hub.Session(neverFed); !ok {
		t.Fatal("never-fed session should wait for its client, not evict")
	}
	if snap := hub.Snapshot(); snap.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", snap.Evictions)
	}
}

func TestStreamFedSession(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 4, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()

	clock := stream.NewVirtualClock(0, 0)
	inlet, err := stream.NewUDPInlet(clock, 4096)
	if err != nil {
		t.Fatal(err)
	}
	outlet, err := stream.NewUDPOutlet(inlet.Addr(), clock, stream.LinkConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: RingSource{Ring: inlet.Ring}, Norm: p.NormFor(0)})
	if err != nil {
		t.Fatal(err)
	}

	// Stream enough EEG to fill the 100-sample window, then tick.
	gen := eeg.NewGenerator(eeg.NewSubject(0), 42)
	for i := 0; i < 400; i++ {
		raw := gen.Next(eeg.Left)
		outlet.Push(raw[:])
	}
	outlet.Close()
	deadline := time.Now().Add(2 * time.Second)
	for inlet.Ring.Len() < 150 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 40; i++ {
		hub.TickAll()
	}
	st, ok := hub.Session(id)
	if !ok {
		t.Fatal("session vanished")
	}
	if st.Decoded == 0 {
		t.Fatal("stream-fed session decoded nothing")
	}
}

// TestShortSamplesAreDropped feeds a network session truncated frames (the
// wire format lets a client claim any channel count): they must be dropped,
// not panic the shard, and full frames must still decode.
func TestShortSamplesAreDropped(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	ring := stream.NewRing(2048)
	id, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: RingSource{Ring: ring}, Norm: p.NormFor(0)})
	if err != nil {
		t.Fatal(err)
	}
	gen := eeg.NewGenerator(eeg.NewSubject(0), 3)
	seq := uint64(0)
	for i := 0; i < 200; i++ {
		if i%10 == 0 { // every 10th frame is malformed (4 of 16 channels)
			ring.Push(stream.Sample{Seq: seq, Values: []float64{1, 2, 3, 4}})
			seq++
		}
		raw := gen.Next(eeg.Idle)
		ring.Push(stream.Sample{Seq: seq, Values: append([]float64(nil), raw[:]...)})
		seq++
		if i%10 == 9 {
			// Stream at about the tick rate: a burst past one window
			// would be shed, and this test is about the malformed frames.
			hub.TickAll() // must not panic
		}
	}
	for i := 0; i < 10; i++ {
		hub.TickAll()
	}
	st, ok := hub.Session(id)
	if !ok || st.Decoded == 0 {
		t.Fatalf("session should survive malformed frames and decode (ok=%v, decoded=%d)", ok, st.Decoded)
	}
}

// TestIdleEvictionClearsIndex pins the hub index bookkeeping: a session the
// shard evicts on idle timeout must disappear from Session lookups, and a
// manual Evict of it must report not-found.
func TestIdleEvictionClearsIndex(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 4, TickHz: 15, MaxIdleTicks: 2, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	ring := stream.NewRing(256)
	gen := eeg.NewGenerator(eeg.NewSubject(0), 11)
	for i := 0; i < 20; i++ {
		raw := gen.Next(eeg.Idle)
		ring.Push(stream.Sample{Seq: uint64(i), Values: append([]float64(nil), raw[:]...)})
	}
	id, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: RingSource{Ring: ring}, Norm: p.NormFor(0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		hub.TickAll() // drains the 20 samples, then idles out after 2 ticks
	}
	if n := hub.Sessions(); n != 0 {
		t.Fatalf("sessions = %d, want 0", n)
	}
	if _, ok := hub.Session(id); ok {
		t.Fatal("idle-evicted session still resolvable via the index")
	}
	if err := hub.Evict(id); err == nil {
		t.Fatal("evicting an already idle-evicted session should report not-found")
	}
}

// TestPacedHubRace exercises the Start/Stop paced path with concurrent
// admission, eviction and snapshots — the -race workout for the hub.
func TestPacedHubRace(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 3, MaxSessionsPerShard: 32, TickHz: 200, LatencyWindow: 64}, reg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()
	hub.Start() // idempotent

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []SessionID
			for i := 0; i < 6; i++ {
				id, err := hub.Admit(boardSession(t, p, 0, uint64(w*100+i)+1))
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, id)
				time.Sleep(2 * time.Millisecond)
				_ = hub.Snapshot()
			}
			for _, id := range mine[:3] {
				if err := hub.Evict(id); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	time.Sleep(50 * time.Millisecond)
	snap := hub.Snapshot()
	if snap.Ticks == 0 {
		t.Fatal("paced loops never ticked")
	}
	hub.Stop()
	if n := hub.Sessions(); n != 0 {
		t.Fatalf("sessions after stop = %d, want 0", n)
	}
	// Restartable.
	hub.Start()
	hub.Stop()
}
