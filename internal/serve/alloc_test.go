package serve

import (
	"testing"

	"cognitivearm/internal/board"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
)

// TestShardTickAllocFree is the tentpole's regression gate: once windows are
// full and the arena is warm, a shard tick — source drain, window push,
// cross-session batched classification, debounce — performs zero heap
// allocations, for both classifier kinds. Board sources synthesise EEG
// on-demand through ReadInto's buffer-recycling path, so the whole
// closed loop is covered, not just the classify call.
func TestShardTickAllocFree(t *testing.T) {
	reg, p := testFleet(t)
	// Add an NN decoder alongside testFleet's forest: untrained weights
	// serve identically to trained ones and build in microseconds.
	cnnSpec := models.Spec{Family: models.FamilyCNN, WindowSize: p.Config.WindowSize,
		Optimizer: "adam", LR: 1e-3, Dropout: 0.2, ConvLayers: 1, Filters: 8, Kernel: 5, Stride: 2, Pool: "none"}
	if _, _, err := reg.GetOrBuild("cnn", func() (models.Classifier, int64, error) {
		net, err := models.BuildNet(cnnSpec, 1)
		if err != nil {
			return nil, 0, err
		}
		return &models.NNClassifier{Net: net, Spec: cnnSpec}, models.OpsPerInference(cnnSpec), nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, modelKey := range []string{"rf", "cnn"} {
		t.Run(modelKey, func(t *testing.T) {
			const sessions = 8
			hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: sessions, TickHz: 15, LatencyWindow: 32}, reg)
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Stop()
			for i := 0; i < sessions; i++ {
				b := board.NewSyntheticCyton(eeg.NewSubject(0), uint64(i)*7+3, false)
				if err := b.Start(); err != nil {
					t.Fatal(err)
				}
				if _, err := hub.Admit(SessionConfig{ModelKey: modelKey, Source: b, Norm: p.NormFor(0)}); err != nil {
					t.Fatal(err)
				}
			}
			sh := hub.shards[0]
			for i := 0; i < 25; i++ { // fill windows, warm arena + workspace
				sh.tick()
			}
			if avg := testing.AllocsPerRun(50, sh.tick); avg != 0 {
				t.Fatalf("steady-state shard tick allocates %.1f times per tick, want 0", avg)
			}
		})
	}
}

// TestShardTickAllocFreeRingFed covers the backlog-aware drain: ring-fed
// sessions take their whole backlog each tick, and a burst past one window
// sheds through the same arena buffer, with no heap allocation either way.
func TestShardTickAllocFreeRingFed(t *testing.T) {
	reg, p := testFleet(t)
	const sessions = 8
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: sessions, TickHz: 15, LatencyWindow: 32}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	feeds := make([]*ringFeed, sessions)
	for i := range feeds {
		feeds[i] = newRingFeed(1024)
		if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: RingSource{Ring: feeds[i].ring}, Norm: p.NormFor(0)}); err != nil {
			t.Fatal(err)
		}
	}
	sh := hub.shards[0]
	w := windowSize(hub)
	n := 0
	tick := func() {
		for i, f := range feeds {
			if (n+i)%10 == 0 {
				f.push(3 * w) // a burst: sheds 2·W
			} else {
				f.push(9)
			}
		}
		n++
		sh.tick()
	}
	for i := 0; i < 25; i++ { // every session bursts once: buffers at their high-water mark
		tick()
	}
	shed := hub.tel.shed.Value()
	if avg := testing.AllocsPerRun(50, tick); avg != 0 {
		t.Fatalf("steady-state ring-fed tick allocates %.1f times per tick, want 0", avg)
	}
	if hub.tel.shed.Value() == shed {
		t.Fatal("measured ticks never shed; the shed path went unmeasured")
	}
}
