package stream

import (
	"reflect"
	"testing"
)

// TestRingSnapshotDoesNotConsume: Snapshot must return the buffered samples
// oldest-first, leave the ring untouched, and deep-copy values so later
// producer writes cannot mutate a checkpoint in flight.
func TestRingSnapshotDoesNotConsume(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ { // wraps: 2 oldest overwritten
		r.Push(Sample{Seq: uint64(i), Values: []float64{float64(i)}})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d samples, want 4", len(snap))
	}
	for i, s := range snap {
		if want := uint64(i + 2); s.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest-first after wrap)", i, s.Seq, want)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("snapshot consumed the ring: %d left, want 4", r.Len())
	}
	// Deep copy: mutating the snapshot must not reach the ring.
	snap[0].Values[0] = -999
	popped := r.PopN(1)
	if popped[0].Values[0] == -999 {
		t.Fatal("snapshot aliases ring sample values")
	}
	// And the ring drains in the same order the snapshot reported.
	rest := r.Drain()
	var seqs []uint64
	for _, s := range append(popped[:1:1], rest...) {
		seqs = append(seqs, s.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{2, 3, 4, 5}) {
		t.Fatalf("drain order %v", seqs)
	}
}

func TestRingSnapshotEmpty(t *testing.T) {
	if got := NewRing(3).Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
}

// TestRingOverwriteCounted: every sample a full ring overwrites moves the
// process-wide cogarm_stream_ring_overwritten_total counter.
func TestRingOverwriteCounted(t *testing.T) {
	c := streamTel().ringOverwritten
	before := c.Value()
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		r.Push(Sample{Seq: uint64(i)})
	}
	if got := c.Value() - before; got != 3 {
		t.Fatalf("overwrite counter moved by %d, want 3", got)
	}
	if r.Dropped() != 3 {
		t.Fatalf("ring dropped %d, want 3", r.Dropped())
	}
}
