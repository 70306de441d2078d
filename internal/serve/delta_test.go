package serve

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"sort"
	"testing"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/tensor"
	"cognitivearm/internal/wal"
)

// deltaHub serves two script-fed sessions; only the first has samples, so
// after a tick exactly one session is dirty.
func deltaHub(t *testing.T) *Hub {
	t.Helper()
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 4, TickHz: 15, LatencyWindow: 32}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Stop)
	for _, n := range []int{300, 0} {
		src := &scriptSource{samples: scriptedEEG(0, 41, n)}
		if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: src, Norm: p.NormFor(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		hub.TickAll()
	}
	return hub
}

// readDelta reads one batch from sr and decodes it.
func readDelta(t *testing.T, sr *wal.StreamReader) (*wal.Batch, *Delta) {
	t.Helper()
	b, err := sr.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeDelta(b.Entries)
	if err != nil {
		t.Fatal(err)
	}
	return b, d
}

// TestDeltaStreamRoundTrip: a whole-fleet capture — the shape a migration
// ships — survives AppendDelta, a WAL stream and Delta: records, hub
// config, MACs, and models that predict identically.
func TestDeltaStreamRoundTrip(t *testing.T) {
	hub := deltaHub(t)
	state := hub.CaptureState()
	var wire bytes.Buffer
	sw := wal.NewStreamWriter(&wire)
	if err := AppendDelta(sw, state, map[string]struct{}{}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	_, d := readDelta(t, wal.NewStreamReader(&wire))
	if !reflect.DeepEqual(d.Records, state.Sessions) {
		t.Fatalf("session records mangled:\n got %+v\nwant %+v", d.Records, state.Sessions)
	}
	if d.Refs == nil || d.Refs.Hub != state.Manifest.Hub || d.Refs.Sessions != len(state.Sessions) {
		t.Fatalf("refs manifest mangled: %+v", d.Refs)
	}
	if !reflect.DeepEqual(d.MACs, state.ModelMACs) {
		t.Fatalf("model MACs mangled: %+v", d.MACs)
	}
	rng := tensor.NewRNG(11)
	for key, orig := range state.Models {
		got, ok := d.Models[key]
		if !ok {
			t.Fatalf("model %q missing after the round trip", key)
		}
		x := tensor.New(orig.WindowSize(), eeg.NumChannels)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		if p1, p2 := orig.Probs(x), got.Probs(x); !reflect.DeepEqual(p1, p2) {
			t.Fatalf("model %q probs diverge after the round trip: %v vs %v", key, p1, p2)
		}
	}
}

// TestDeltaStreamModelDedup: on one stream with one sent set, the first
// batch carries the model and every session; the next carries only the
// dirty session and no model, but the full live view — and folding both
// reproduces the hub's own capture.
func TestDeltaStreamModelDedup(t *testing.T) {
	hub := deltaHub(t)
	var wire bytes.Buffer
	sw := wal.NewStreamWriter(&wire)
	sent := map[string]struct{}{}
	first := hub.CaptureDelta(nil)
	if err := AppendDelta(sw, first, sent); err != nil {
		t.Fatal(err)
	}
	root1, _, _, err := sw.Seal()
	if err != nil {
		t.Fatal(err)
	}
	hub.TickAll()
	second := hub.CaptureDelta(first.Manifest.RefIndex())
	want := hub.CaptureState()
	if err := AppendDelta(sw, second, sent); err != nil {
		t.Fatal(err)
	}
	root2, _, _, err := sw.Seal()
	if err != nil {
		t.Fatal(err)
	}

	sr := wal.NewStreamReader(&wire)
	b1, d1 := readDelta(t, sr)
	b2, d2 := readDelta(t, sr)
	if len(d1.Models) != 1 || len(d1.Records) != 2 {
		t.Fatalf("first batch carried %d models / %d sessions, want 1 / 2", len(d1.Models), len(d1.Records))
	}
	if len(d2.Models) != 0 || len(d2.Records) != 1 || len(d2.Refs.Refs) != 2 {
		t.Fatalf("second batch carried %d models / %d sessions / %d refs, want 0 / 1 / 2",
			len(d2.Models), len(d2.Records), len(d2.Refs.Refs))
	}
	if b1.Root != root1 || b2.Root != root2 || b2.First != b1.Last+1 {
		t.Fatalf("batches [%d,%d] %x, [%d,%d] %x do not match the sealed %x, %x",
			b1.First, b1.Last, b1.Root[:6], b2.First, b2.Last, b2.Root[:6], root1[:6], root2[:6])
	}
	sessions := map[uint64]checkpoint.SessionRecord{}
	clfs, macs := map[string]models.Classifier{}, map[string]int64{}
	for _, d := range []*Delta{d1, d2} {
		if err := d.FoldInto(sessions, clfs, macs); err != nil {
			t.Fatal(err)
		}
	}
	var got []checkpoint.SessionRecord
	for _, rec := range sessions {
		got = append(got, rec)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	if !reflect.DeepEqual(got, want.Sessions) {
		t.Fatalf("folded image diverged from the hub:\n got %+v\nwant %+v", got, want.Sessions)
	}
	if _, err := sr.ReadBatch(); err != io.EOF {
		t.Fatalf("clean end returned %v, want io.EOF", err)
	}
}

// TestDeltaStreamTornMidRecord: a migration-shaped stream — a whole-fleet
// capture through AppendDelta — torn at any byte offset, whether mid-header,
// mid-model, mid-session record or mid-seal, surfaces ErrCorrupt. This is
// the wire shape a killed sender leaves behind, and migration-in refuses the
// batch whole only if the tear is detected rather than misparsed.
func TestDeltaStreamTornMidRecord(t *testing.T) {
	state := deltaHub(t).CaptureState()
	var wire bytes.Buffer
	sw := wal.NewStreamWriter(&wire)
	if err := AppendDelta(sw, state, map[string]struct{}{}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	full := wire.Bytes()
	cuts := []int{
		4,              // inside the stream header
		10,             // inside the first entry's framing
		100,            // inside the model payload
		len(full) / 4,  // deeper into the model
		len(full) / 2,  // further in
		len(full) - 80, // inside the refs manifest or the seal
		len(full) - 2,  // inside the seal's CRC
	}
	for _, cut := range cuts {
		if _, err := wal.NewStreamReader(bytes.NewReader(full[:cut])).ReadBatch(); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("stream torn at byte %d returned %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestDeltaStreamRejectsImpossibleHub: a refs manifest that describes a hub
// no node could run is corruption, whoever reads it.
func TestDeltaStreamRejectsImpossibleHub(t *testing.T) {
	state := deltaHub(t).CaptureState()
	state.Manifest.Hub.Shards = 0
	var wire bytes.Buffer
	sw := wal.NewStreamWriter(&wire)
	if err := AppendDelta(sw, state, map[string]struct{}{}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	b, err := wal.NewStreamReader(&wire).ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(b.Entries); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("impossible hub config returned %v, want ErrCorrupt", err)
	}
}

// TestRestoreRefusesImpossiblePending: a record whose pending samples are
// narrower than its channel count is refused by every restore path —
// checkpoint restore, migration-in and failover promotion — and admits
// nothing.
func TestRestoreRefusesImpossiblePending(t *testing.T) {
	hub := deltaHub(t)
	state := hub.CaptureState()
	bad := state.Sessions[0]
	bad.Pending = []checkpoint.PendingSample{{Seq: 1, Values: make([]float64, bad.Channels-1)}}
	state.Sessions = []checkpoint.SessionRecord{bad}
	src := func(RestoredSession) (Source, error) { return &scriptSource{}, nil }

	cases := map[string]func() (*Hub, error){
		"RestoreHub": func() (*Hub, error) { return RestoreHub(state, src) },
		"RestoreSession": func() (*Hub, error) {
			dst, err := NewHub(hub.Config(), hub.Registry())
			if err != nil {
				t.Fatal(err)
			}
			_, err = dst.RestoreSession(&bad, &scriptSource{})
			return dst, err
		},
		"PromoteSession": func() (*Hub, error) {
			dst, err := NewHub(hub.Config(), hub.Registry())
			if err != nil {
				t.Fatal(err)
			}
			_, err = dst.PromoteSession(&bad, &scriptSource{})
			return dst, err
		},
	}
	for name, restore := range cases {
		dst, err := restore()
		if err == nil {
			t.Fatalf("%s accepted a record with %d-value pending samples on %d channels", name, bad.Channels-1, bad.Channels)
		}
		if dst != nil {
			if n := dst.Sessions(); n != 0 {
				t.Fatalf("%s admitted %d sessions from a refused record", name, n)
			}
			dst.Stop()
		}
	}
}
