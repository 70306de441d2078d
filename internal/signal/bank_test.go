package signal

import (
	"math"
	"testing"
)

// TestBankMatchesPreprocessors runs a 5-channel bank and five
// EEGPreprocessors over the same rows: outputs and exported delay state
// must agree bit for bit, and restoring a channel's state must continue it
// exactly.
func TestBankMatchesPreprocessors(t *testing.T) {
	const ch = 5
	bank, err := NewEEGBank(fs, ch)
	if err != nil {
		t.Fatal(err)
	}
	pre := make([]*EEGPreprocessor, ch)
	for c := range pre {
		if pre[c], err = NewEEGPreprocessor(fs); err != nil {
			t.Fatal(err)
		}
	}
	row := make([]float64, ch)
	step := func(i int) {
		t.Helper()
		for c := range row {
			row[c] = 30*math.Sin(float64(i*(c+1))/7) + float64(c)
		}
		want := make([]float64, ch)
		for c := range want {
			want[c] = pre[c].Process(row[c])
		}
		bank.ProcessRow(row)
		for c := range row {
			if math.Float64bits(row[c]) != math.Float64bits(want[c]) {
				t.Fatalf("sample %d channel %d: bank %v, preprocessor %v", i, c, row[c], want[c])
			}
		}
	}
	for i := range 300 {
		step(i)
	}
	for c := range pre {
		got, want := bank.ChannelState(c), pre[c].State()
		if len(got) != len(want) {
			t.Fatalf("channel %d: %d state values, want %d", c, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("channel %d state %d: %v, want %v", c, i, got[i], want[i])
			}
		}
	}
	restored, err := NewEEGBank(fs, ch)
	if err != nil {
		t.Fatal(err)
	}
	for c := range pre {
		if err := restored.SetChannelState(c, bank.ChannelState(c)); err != nil {
			t.Fatal(err)
		}
	}
	bank = restored
	for i := 300; i < 400; i++ {
		step(i)
	}
}

// TestBankSetChannelStateRejectsPoison: a state holding NaN or ±Inf restarts
// that channel from zero state; a wrong-length state is an error.
func TestBankSetChannelStateRejectsPoison(t *testing.T) {
	bank, err := NewEEGBank(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := bank.ChannelState(0)
	for i := range st {
		st[i] = 1
	}
	st[3] = math.Inf(-1)
	if err := bank.SetChannelState(0, st); err != nil {
		t.Fatal(err)
	}
	for i, v := range bank.ChannelState(0) {
		if v != 0 {
			t.Fatalf("poisoned state value %d kept as %v", i, v)
		}
	}
	if err := bank.SetChannelState(1, st[:3]); err == nil {
		t.Fatal("short state accepted")
	}
	if _, err := NewEEGBank(fs, 0); err == nil {
		t.Fatal("zero-channel bank accepted")
	}
}
