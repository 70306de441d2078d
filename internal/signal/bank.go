package signal

import (
	"fmt"
	"math"
)

// Bank is the multichannel form of EEGPreprocessor: one shared section list
// (the band-pass sections, then the notch) applied to every channel of a
// sample row, with each channel's DF2T delay state kept section-major,
// z1[s*C+c]. ProcessRow filters a row one section at a time across all
// channels, so the C channels form C independent dependency chains the CPU
// can overlap, instead of one serial chain of sections per channel. Each
// channel runs the exact Biquad.Process expression, in the same section
// order, so its output is bitwise-identical to a per-channel
// EEGPreprocessor fed the same samples.
type Bank struct {
	sections []Biquad // coefficients only; state lives in z1/z2
	channels int
	z1, z2   []float64 // section-major: [s*channels+c]
}

// NewEEGBank builds the paper's preprocessing chain (see NewEEGPreprocessor)
// for channels channels, designing the filter once for all of them.
func NewEEGBank(fsHz float64, channels int) (*Bank, error) {
	if channels < 1 {
		return nil, fmt.Errorf("signal: bank needs at least one channel, got %d", channels)
	}
	p, err := NewEEGPreprocessor(fsHz)
	if err != nil {
		return nil, err
	}
	sections := append(append([]Biquad(nil), p.Bandpass.Sections...), p.Notch.Sections...)
	n := len(sections) * channels
	return &Bank{sections: sections, channels: channels, z1: make([]float64, n), z2: make([]float64, n)}, nil
}

// ProcessRow filters one sample of every channel in place; row must hold
// at least as many values as the bank has channels, and only those are
// filtered.
//
//cogarm:zeroalloc
func (b *Bank) ProcessRow(row []float64) {
	row = row[:b.channels]
	for s := range b.sections {
		q := b.sections[s]
		lo := s * b.channels
		z1 := b.z1[lo : lo+len(row)]
		z2 := b.z2[lo : lo+len(row)]
		for c, x := range row {
			y := q.B0*x + z1[c]
			z1[c] = q.B1*x - q.A1*y + z2[c]
			z2[c] = q.B2*x - q.A2*y
			row[c] = y
		}
	}
}

// ChannelState exports one channel's delay state in EEGPreprocessor.State
// layout, [z1, z2] per section in section order.
func (b *Bank) ChannelState(ch int) []float64 {
	out := make([]float64, 0, 2*len(b.sections))
	for s := range b.sections {
		i := s*b.channels + ch
		out = append(out, b.z1[i], b.z2[i])
	}
	return out
}

// SetChannelState restores one channel's delay state from the
// EEGPreprocessor.State layout. A state holding any non-finite value would
// poison the channel for good (an IIR never forgets a NaN), so it is
// replaced by zero state, as if the channel had just started.
func (b *Bank) SetChannelState(ch int, state []float64) error {
	if len(state) != 2*len(b.sections) {
		return fmt.Errorf("preprocessor state has %d values, want %d", len(state), 2*len(b.sections))
	}
	finite := true
	for _, v := range state {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			break
		}
	}
	for s := range b.sections {
		i := s*b.channels + ch
		if finite {
			b.z1[i], b.z2[i] = state[2*s], state[2*s+1]
		} else {
			b.z1[i], b.z2[i] = 0, 0
		}
	}
	return nil
}
