package control

import (
	"fmt"
	"math"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/signal"
	"cognitivearm/internal/tensor"
)

// Windower is the ingest stage of a closed loop: per-channel causal
// filtering, training-stats normalisation, and a WindowSize×Channels rolling
// buffer of the most recent samples. It was extracted from Controller so the
// fleet sessions of internal/serve can run the identical signal path without
// carrying a Controller's actuator and latency accounting. A Windower is
// single-session state and must not be shared across goroutines.
//
// The rolling window is a sliding view over a row buffer that holds
// windowSlack(WindowSize) spare rows: a full window advances by moving the
// view down one row, and only when the view reaches the end of the buffer
// are its rows copied back to the start — once per slack cycle instead of
// on every sample.
type Windower struct {
	bank   *signal.Bank
	norm   dataset.Stats
	buf    []float64     // (WindowSize + slack) × Channels rows
	view   tensor.Matrix // WindowSize × Channels view of buf at row off
	off    int
	filled int
}

// windowSlack is the number of spare buffer rows: a quarter window, so the
// shift is amortised over many pushes while the buffer grows by only a
// quarter.
func windowSlack(windowSize int) int { return max(windowSize/4, 1) }

// NewWindower builds the ingest stage for one session. norm holds the
// subject's training normalisation constants, applied to live samples
// exactly as during training (§V-A); a zero-value Stats disables
// normalisation.
func NewWindower(sampleRateHz float64, channels, windowSize int, norm dataset.Stats) (*Windower, error) {
	if channels < 1 || windowSize < 1 {
		return nil, fmt.Errorf("control: windower needs positive channels (%d) and window (%d)", channels, windowSize)
	}
	bank, err := signal.NewEEGBank(sampleRateHz, channels)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	w := &Windower{bank: bank, norm: norm, buf: make([]float64, (windowSize+windowSlack(windowSize))*channels)}
	w.view = tensor.Matrix{Rows: windowSize, Cols: channels}
	w.slide(0)
	return w, nil
}

// slide points the window view at buffer row off.
func (w *Windower) slide(off int) {
	w.off = off
	lo, hi := off*w.view.Cols, (off+w.view.Rows)*w.view.Cols
	w.view.Data = w.buf[lo:hi:hi]
}

// Push filters one raw sample and appends it to the rolling window. A
// sample is dropped (reported false) when it has fewer values than the
// window's channel count or when any of the values it contributes is NaN or
// ±Inf: network-fed sessions receive attacker-controlled samples on the
// wire, a short sample must not panic the serving shard, and a non-finite
// value would poison the channel's IIR delay line for good. A dropped
// sample leaves the window and the filter state untouched.
//
//cogarm:zeroalloc
func (w *Windower) Push(values []float64) bool {
	ch := w.view.Cols
	if len(values) < ch {
		return false
	}
	values = values[:ch]
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	if w.filled == w.view.Rows {
		if (w.off+w.view.Rows+1)*ch > len(w.buf) {
			// Out of slack: move the newest Rows−1 rows to the start.
			copy(w.buf, w.buf[(w.off+1)*ch:(w.off+w.view.Rows)*ch])
			w.slide(0)
		} else {
			w.slide(w.off + 1)
		}
		w.filled--
	}
	row := w.view.Row(w.filled)
	copy(row, values)
	w.bank.ProcessRow(row)
	for c, v := range row[:min(len(w.norm.Mean), len(row))] {
		// StdFor guards the divisor: a Stats with len(Std) < len(Mean)
		// or a flat training channel (zero std) must neither panic the
		// serving shard nor feed ±Inf/NaN to every classifier downstream.
		row[c] = (v - w.norm.Mean[c]) / w.norm.StdFor(c)
	}
	w.filled++
	return true
}

// Ready reports whether enough samples have accumulated to classify.
//
//cogarm:zeroalloc
func (w *Windower) Ready() bool { return w.filled == w.view.Rows }

// Window exposes the rolling window for classification without copying: a
// view over the Windower's row buffer, valid until the next Push, which may
// move the view or overwrite its rows. Classify before pushing more
// samples, or use WindowInto for a stable copy. The serving shard reads it
// zero-copy: within one tick, every ready window is classified before any
// session receives further pushes, so the aliasing is safe (see
// ARCHITECTURE.md "Memory model").
//
//cogarm:zeroalloc
func (w *Windower) Window() *tensor.Matrix { return &w.view }

// WindowInto copies the rolling window into dst and returns it, allocating
// only when dst is nil or mis-shaped. Callers that must hold a window across
// subsequent Push calls (deferred classification, cross-tick buffering) use
// this with a reused dst instead of cloning Window() every tick.
func (w *Windower) WindowInto(dst *tensor.Matrix) *tensor.Matrix {
	if dst == nil || dst.Rows != w.view.Rows || dst.Cols != w.view.Cols {
		dst = tensor.New(w.view.Rows, w.view.Cols)
	}
	copy(dst.Data, w.view.Data)
	return dst
}

// Size returns the window length in samples.
//
//cogarm:zeroalloc
func (w *Windower) Size() int { return w.view.Rows }

// Debouncer is the actuation debounce shared by the single-subject
// Controller and the serving fleet's sessions: a label only counts as agreed
// when it holds a SmoothingWindow−1 supermajority over the last
// SmoothingWindow labels, absorbing the strays produced while the rolling
// window straddles an intent transition. The history lives in a fixed-size
// ring: the previous append+reslice pattern shifted the backing array on
// every decoded label, churning memory for the lifetime of a serving
// session. The zero value is ready to use.
type Debouncer struct {
	recent [SmoothingWindow]eeg.Action
	head   int // next write slot
	n      int // labels observed, saturating at SmoothingWindow
}

// Observe records one decoded label and reports whether the debounce agrees
// on it.
//
//cogarm:zeroalloc
func (d *Debouncer) Observe(a eeg.Action) bool {
	d.recent[d.head] = a
	d.head++
	if d.head == SmoothingWindow {
		d.head = 0
	}
	if d.n < SmoothingWindow {
		d.n++
		if d.n < SmoothingWindow {
			return false
		}
	}
	votes := 0
	for _, r := range d.recent {
		if r == a {
			votes++
		}
	}
	return votes >= SmoothingWindow-1
}
