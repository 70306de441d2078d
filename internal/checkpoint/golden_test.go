package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cognitivearm/internal/models"
)

// The fixtures under testdata/ were written once by the build that still
// had incremental checkpoints (commit cb202b9), with a throwaway test that
// saved testState in that build's format-2 layout and recorded what that
// build's Load returned:
//
//   - v2/ckpt-00000001: a full directory (refs for both sessions, every
//     record and model local, WalSeq 42). v2-full.want.gob is its loaded
//     state: hub config, NextID, shard counters, WalSeq, session records,
//     model MACs and each model's models.Save bytes.
//   - v2/ckpt-00000002: an incremental directory on base 1 — session 3
//     rewritten, session 7 and both models referenced from ckpt-00000001.
//   - v2-dirty/ckpt-00000002: an incremental directory that rewrote both
//     sessions but still referenced both models, so every ref is backed by a
//     local record and only the manifest's Base tells it apart.

// goldenWant is the recorded state; gob matches it to the generator's type
// by field name.
type goldenWant struct {
	Hub       HubConfig
	NextID    uint64
	Shards    []ShardCounters
	WalSeq    uint64
	Sessions  []SessionRecord
	ModelMACs map[string]int64
	Models    map[string][]byte
}

// TestGoldenFullV2LoadsBitwise: a full directory written by the previous
// format still loads, bitwise-equal to what that build loaded from it.
func TestGoldenFullV2LoadsBitwise(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v2-full.want.gob"))
	if err != nil {
		t.Fatal(err)
	}
	var want goldenWant
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(filepath.Join("testdata", "v2", "ckpt-00000001"))
	if err != nil {
		t.Fatal(err)
	}
	man := got.Manifest
	if man.Hub != want.Hub || man.NextID != want.NextID || man.WalSeq != want.WalSeq ||
		!reflect.DeepEqual(man.Shards, want.Shards) {
		t.Fatalf("manifest diverged: %+v", man)
	}
	if !reflect.DeepEqual(got.Sessions, want.Sessions) {
		t.Fatalf("session records diverged:\n got %+v\nwant %+v", got.Sessions, want.Sessions)
	}
	if !reflect.DeepEqual(got.ModelMACs, want.ModelMACs) {
		t.Fatalf("model MACs diverged: %+v", got.ModelMACs)
	}
	if len(got.Models) != len(want.Models) {
		t.Fatalf("loaded %d models, want %d", len(got.Models), len(want.Models))
	}
	for key, clf := range got.Models {
		var buf bytes.Buffer
		if err := models.Save(&buf, clf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want.Models[key]) {
			t.Fatalf("model %q bytes diverged", key)
		}
	}
	// Re-saved, it is written in this build's format and loads unchanged.
	dir, err := Save(t.TempDir(), got)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if again.Manifest.Format != 0 || again.Manifest.Refs != nil || !reflect.DeepEqual(again.Sessions, want.Sessions) {
		t.Fatalf("re-saved fleet diverged: format %d, %d refs", again.Manifest.Format, len(again.Manifest.Refs))
	}
}

// TestIncrementalVersionMismatchRejected: an incremental directory from the
// previous format is a version this build does not read. Load refuses it
// with ErrVersion, and never returns the smaller fleet its local records
// alone would make.
func TestIncrementalVersionMismatchRejected(t *testing.T) {
	for _, dir := range []string{
		filepath.Join("testdata", "v2", "ckpt-00000002"),
		filepath.Join("testdata", "v2-dirty", "ckpt-00000002"),
	} {
		state, err := Load(dir)
		if !errors.Is(err, ErrVersion) || state != nil {
			t.Fatalf("%s: Load returned %v, %v; want ErrVersion and no state", dir, state, err)
		}
	}
}

// TestIncrementalBrokenChainFallsBack: LoadLatest over [full, incremental]
// skips the incremental directory it cannot resolve, counts one load error,
// and returns the full one.
func TestIncrementalBrokenChainFallsBack(t *testing.T) {
	errsBefore := ckptTel().loadErrs.Value()
	state, dir, err := LoadLatest(filepath.Join("testdata", "v2"))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(dir) != "ckpt-00000001" {
		t.Fatalf("LoadLatest picked %s, want the full ckpt-00000001", dir)
	}
	if len(state.Sessions) != 2 {
		t.Fatalf("fallback loaded %d sessions, want 2", len(state.Sessions))
	}
	if d := ckptTel().loadErrs.Value() - errsBefore; d != 1 {
		t.Fatalf("load errors moved by %d, want 1", d)
	}
}

// TestFoldRefs pins the one rule for applying a live-session view.
func TestFoldRefs(t *testing.T) {
	recs := func() map[uint64]SessionRecord {
		return map[uint64]SessionRecord{
			1: {ID: 1, Ver: 4, SampleAcc: 0.1, IdleTicks: 2, Decoded: 10},
			2: {ID: 2, Ver: 7, SampleAcc: 0.2, IdleTicks: 0, Decoded: 20},
		}
	}
	cases := []struct {
		name    string
		refs    []SessionRef
		want    map[uint64]SessionRecord
		wantErr string
	}{
		{
			name: "departure pruned",
			refs: []SessionRef{{ID: 2, Ver: 7, SampleAcc: 0.2}},
			want: map[uint64]SessionRecord{2: {ID: 2, Ver: 7, SampleAcc: 0.2, Decoded: 20}},
		},
		{
			name:    "missing record",
			refs:    []SessionRef{{ID: 1, Ver: 4}, {ID: 2, Ver: 7}, {ID: 3, Ver: 1}},
			wantErr: "no record for live session 3",
		},
		{
			name:    "ver mismatch",
			refs:    []SessionRef{{ID: 1, Ver: 5}, {ID: 2, Ver: 7}},
			wantErr: "session 1 at ver 4, refs expect 5",
		},
		{
			name: "overlay applied",
			refs: []SessionRef{{ID: 1, Ver: 4, SampleAcc: 0.75, IdleTicks: 9}, {ID: 2, Ver: 7, SampleAcc: 0.5, IdleTicks: 3}},
			want: map[uint64]SessionRecord{
				1: {ID: 1, Ver: 4, SampleAcc: 0.75, IdleTicks: 9, Decoded: 10},
				2: {ID: 2, Ver: 7, SampleAcc: 0.5, IdleTicks: 3, Decoded: 20},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := recs()
			err := FoldRefs(got, tc.refs)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("FoldRefs error %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("folded\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
