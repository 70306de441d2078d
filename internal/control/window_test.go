package control

import (
	"math"
	"testing"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/signal"
	"cognitivearm/internal/tensor"
)

// refWindower is the ingest stage as first written, kept as the reference
// the production Windower must match bit for bit: one EEGPreprocessor per
// channel, and a buffer shifted up by one row on every push into a full
// window.
type refWindower struct {
	pre    []*signal.EEGPreprocessor
	norm   dataset.Stats
	window *tensor.Matrix
	filled int
}

func newRefWindower(t testing.TB, channels, windowSize int, norm dataset.Stats) *refWindower {
	t.Helper()
	r := &refWindower{norm: norm, window: tensor.New(windowSize, channels)}
	for range channels {
		p, err := signal.NewEEGPreprocessor(125)
		if err != nil {
			t.Fatal(err)
		}
		r.pre = append(r.pre, p)
	}
	return r
}

func (r *refWindower) push(values []float64) bool {
	if len(values) < r.window.Cols {
		return false
	}
	if r.filled == r.window.Rows {
		copy(r.window.Data, r.window.Data[r.window.Cols:])
		r.filled--
	}
	row := r.window.Row(r.filled)
	for ch := range row {
		v := r.pre[ch].Process(values[ch])
		if ch < len(r.norm.Mean) {
			v = (v - r.norm.Mean[ch]) / r.norm.StdFor(ch)
		}
		row[ch] = v
	}
	r.filled++
	return true
}

func (r *refWindower) state() WindowerState {
	st := WindowerState{Filled: r.filled, Window: append([]float64(nil), r.window.Data...)}
	for _, p := range r.pre {
		st.Filter = append(st.Filter, p.State())
	}
	return st
}

// sameBits reports the first index where a and b differ under
// math.Float64bits, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func stateDiff(t *testing.T, where string, got, want WindowerState) {
	t.Helper()
	if got.Filled != want.Filled {
		t.Fatalf("%s: filled %d, reference %d", where, got.Filled, want.Filled)
	}
	if i := sameBits(got.Window, want.Window); i >= 0 {
		t.Fatalf("%s: state window differs at %d", where, i)
	}
	if len(got.Filter) != len(want.Filter) {
		t.Fatalf("%s: %d filter channels, reference %d", where, len(got.Filter), len(want.Filter))
	}
	for ch := range got.Filter {
		if i := sameBits(got.Filter[ch], want.Filter[ch]); i >= 0 {
			t.Fatalf("%s: channel %d filter state differs at %d", where, ch, i)
		}
	}
}

// testStream is a deterministic multichannel sample stream with a DC offset
// per channel, so the filters carry non-trivial transients.
func testStream(n, channels int, seed uint64) [][]float64 {
	rng := tensor.NewRNG(seed)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, channels)
		for c := range out[i] {
			out[i][c] = float64(c) + 20*rng.NormFloat64()
		}
	}
	return out
}

func testNorm(channels int) dataset.Stats {
	st := dataset.Stats{Mean: make([]float64, channels-1), Std: make([]float64, channels-2)}
	for c := range st.Mean {
		st.Mean[c] = 0.1 * float64(c)
	}
	for c := range st.Std {
		st.Std[c] = 0.5 + float64(c%3) // one channel without Std, one without Mean
	}
	st.Std[1] = 0 // a flat training channel
	return st
}

// TestWindowerMatchesReference pushes twelve windows' worth of samples, so
// the slack buffer compacts many times, and demands that the window, its
// readiness and the exported state match the reference after every push.
func TestWindowerMatchesReference(t *testing.T) {
	const ch, size = 16, 20
	norm := testNorm(ch)
	w, err := NewWindower(125, ch, size, norm)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefWindower(t, ch, size, norm)
	for i, s := range testStream(12*size, ch, 5) {
		if i%37 == 0 { // short samples are rejected by both, with no effect
			if w.Push(s[:ch-1]) || ref.push(s[:ch-1]) {
				t.Fatal("short sample accepted")
			}
		}
		if !w.Push(s) || !ref.push(s) {
			t.Fatalf("push %d rejected", i)
		}
		if w.Ready() != (ref.filled == size) {
			t.Fatalf("push %d: Ready %v, reference filled %d", i, w.Ready(), ref.filled)
		}
		if j := sameBits(w.Window().Data, ref.window.Data); j >= 0 {
			t.Fatalf("push %d: window differs from reference at %d", i, j)
		}
		stateDiff(t, "push", w.State(), ref.state())
	}
}

// TestWindowerStateRoundTripEverySlackOffset snapshots a Windower at every
// position of one slack cycle, restores the snapshot into a fresh Windower,
// and requires both to stay bitwise-identical for several more windows.
func TestWindowerStateRoundTripEverySlackOffset(t *testing.T) {
	const ch, size = 4, 12
	norm := testNorm(ch)
	stream := testStream(5*size+windowSlack(size)+1, ch, 8)
	for k := 0; k <= windowSlack(size); k++ {
		orig, err := NewWindower(125, ch, size, norm)
		if err != nil {
			t.Fatal(err)
		}
		cut := size + k
		for _, s := range stream[:cut] {
			orig.Push(s)
		}
		restored, err := NewWindower(125, ch, size, norm)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.SetState(orig.State()); err != nil {
			t.Fatal(err)
		}
		stateDiff(t, "restore", restored.State(), orig.State())
		for i, s := range stream[cut : cut+3*size] {
			orig.Push(s)
			restored.Push(s)
			if j := sameBits(restored.Window().Data, orig.Window().Data); j >= 0 {
				t.Fatalf("offset %d, push %d after restore: window differs at %d", k, i, j)
			}
		}
		stateDiff(t, "after restore", restored.State(), orig.State())
	}
}

// TestWindowerRejectsNonFinite sends one NaN (and one +Inf) into a stream:
// each costs exactly that sample, every channel stays finite, and the
// windows — so the labels — match a stream that never carried them.
func TestWindowerRejectsNonFinite(t *testing.T) {
	const ch, size = 3, 10
	clean, err := NewWindower(125, ch, size, dataset.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := NewWindower(125, ch, size, dataset.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range testStream(3*size, ch, 3) {
		if i == 4 || i == 17 {
			bad := append([]float64(nil), s...)
			bad[i%ch] = math.NaN()
			if i == 17 {
				bad[i%ch] = math.Inf(1)
			}
			before := dirty.State()
			if dirty.Push(bad) {
				t.Fatalf("push %d: non-finite sample accepted", i)
			}
			stateDiff(t, "after reject", dirty.State(), before)
		}
		clean.Push(s)
		dirty.Push(s)
		for j, v := range dirty.Window().Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("push %d: window element %d is %v", i, j, v)
			}
		}
		if j := sameBits(dirty.Window().Data, clean.Window().Data); j >= 0 {
			t.Fatalf("push %d: window differs from the NaN-free stream at %d", i, j)
		}
	}
}

// TestWindowerSetStateResetsPoisonedFilter restores a snapshot whose filter
// state for one channel holds a NaN. That channel restarts from zero state,
// so one window later it equals a fresh Windower's channel; the other
// channels continue exactly as the unpoisoned original.
func TestWindowerSetStateResetsPoisonedFilter(t *testing.T) {
	const ch, size, poisoned = 3, 10, 1
	stream := testStream(3*size, ch, 4)
	mk := func() *Windower {
		w, err := NewWindower(125, ch, size, dataset.Stats{})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	orig, fresh, restored := mk(), mk(), mk()
	for _, s := range stream[:size+3] {
		orig.Push(s)
	}
	st := orig.State()
	st.Filter[poisoned][2] = math.NaN()
	if err := restored.SetState(st); err != nil {
		t.Fatal(err)
	}
	for _, s := range stream[size+3 : 2*size+3] {
		orig.Push(s)
		fresh.Push(s)
		restored.Push(s)
	}
	got, wantOrig, wantFresh := restored.Window(), orig.Window(), fresh.Window()
	for r := range size {
		for c := range ch {
			want := wantOrig.At(r, c)
			if c == poisoned {
				want = wantFresh.At(r, c)
			}
			if v := got.At(r, c); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("row %d channel %d: %v, want %v", r, c, v, want)
			}
		}
	}
}

func BenchmarkWindowerPush(b *testing.B) {
	const ch, size = 16, 100
	w, err := NewWindower(125, ch, size, testNorm(ch))
	if err != nil {
		b.Fatal(err)
	}
	stream := testStream(4*size, ch, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		w.Push(stream[i%len(stream)])
	}
}
