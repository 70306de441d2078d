package serve

import (
	"reflect"
	"testing"

	"cognitivearm/internal/stream"
)

// gatedSource stays silent for the first `silent` reads, then replays its
// script — a subject who connects but only starts streaming later, the shape
// that leaves an idle session's signal path unchanged while its scheduler
// fields keep drifting.
type gatedSource struct {
	silent  int
	reads   int
	samples []stream.Sample
	pos     int
}

func (g *gatedSource) Read(max int) []stream.Sample {
	g.reads++
	if g.reads <= g.silent {
		return nil
	}
	n := len(g.samples) - g.pos
	if max > 0 && max < n {
		n = max
	}
	out := g.samples[g.pos : g.pos+n : g.pos+n]
	g.pos += n
	return out
}

// TestIncrementalRestoreBitwiseIdentical kills a fleet after several
// checkpoints — with one session active throughout, one idle until after
// the last checkpoint (its signal path unchanged, its scheduler fields
// drifting), and one that wakes mid-run — restores from the newest
// checkpoint, and demands the exact per-tick decode sequence of an
// uninterrupted reference hub, at two kill points many checkpoints apart.
func TestIncrementalRestoreBitwiseIdentical(t *testing.T) {
	reg, p := testFleet(t)
	const (
		totalTicks = 90
		totalSamp  = 900
	)
	cfg := Config{Shards: 2, MaxSessionsPerShard: 3, TickHz: 15, LatencyWindow: 32}
	streams := [][]stream.Sample{
		scriptedEEG(0, 11, totalSamp),
		scriptedEEG(0, 23, totalSamp),
		scriptedEEG(0, 37, totalSamp),
	}
	// silent phases: always-on, wakes mid-run, wakes only after the kill.
	silences := []int{0, 30, 60}

	build := func() (*Hub, []SessionID, []*gatedSource) {
		hub, err := NewHub(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		var ids []SessionID
		var srcs []*gatedSource
		for i, s := range streams {
			src := &gatedSource{silent: silences[i], samples: s}
			id, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: src, Norm: p.NormFor(0), Tag: "g"})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			srcs = append(srcs, src)
		}
		return hub, ids, srcs
	}

	// Reference: uninterrupted.
	ref, refIDs, _ := build()
	defer ref.Stop()
	var want []SessionStats
	for i := 0; i < totalTicks; i++ {
		want = append(want, tickStats(t, ref, refIDs)...)
	}

	for _, killTick := range []int{41, 83} { // after 6 and after 12 periodic checkpoints
		root := t.TempDir()
		victim, ids, srcs := build()
		var got []SessionStats
		for i := 0; i < killTick; i++ {
			got = append(got, tickStats(t, victim, ids)...)
			if i%7 == 6 { // checkpoint every 7 ticks
				if _, err := victim.Checkpoint(root); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := victim.Checkpoint(root); err != nil { // final pre-kill checkpoint
			t.Fatal(err)
		}
		consumed := make([]int, len(srcs))
		reads := make([]int, len(srcs))
		for i, s := range srcs {
			consumed[i], reads[i] = s.pos, s.reads
		}
		victim.Stop()

		restored, _, err := RestoreHubDir(root, func(rec RestoredSession) (Source, error) {
			// Each session resumes its stream exactly where the dead hub
			// stopped reading, with the silence countdown also resumed.
			idx := -1
			for i, id := range ids {
				if id == SessionID(rec.ID) {
					idx = i
				}
			}
			if idx < 0 {
				t.Fatalf("restore offered unknown session %d", rec.ID)
			}
			remaining := silences[idx] - reads[idx]
			if remaining < 0 {
				remaining = 0
			}
			return &gatedSource{silent: remaining, samples: streams[idx][consumed[idx]:]}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := killTick; i < totalTicks; i++ {
			got = append(got, tickStats(t, restored, ids)...)
		}
		restored.Stop()
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("killTick %d: tick-stat %d diverged after incremental restore:\n got %+v\nwant %+v",
						killTick, i, got[i], want[i])
				}
			}
			t.Fatalf("killTick %d: decode sequence diverged after incremental restore", killTick)
		}
	}
}
