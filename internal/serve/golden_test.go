package serve

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"cognitivearm/internal/checkpoint"
)

// TestGoldenWALReplay: a checkpoint and WAL written by the build that still
// had incremental checkpoints (commit cb202b9) still restore bitwise. The
// fixture under testdata/journal was generated once there, by a throwaway
// test that served three sessions (two script-fed, one ring-fed with its
// stream buffered upfront) on a 3-tree forest and journaled them NoSync:
// tick 10, Flush, tick 10, Journal.Checkpoint (a full directory fenced at
// WalSeq, segments below it truncated), tick 10, evict the third session,
// Flush, tick 5, Flush, Close. want.gob holds the hub's CaptureState
// records and NextID after the last flush, plus the registry keys.
func TestGoldenWALReplay(t *testing.T) {
	dir := filepath.Join("testdata", "journal")
	raw, err := os.ReadFile(filepath.Join(dir, "want.gob"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		NextID   uint64
		Sessions []checkpoint.SessionRecord
		Models   []string
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	base, _, err := checkpoint.LoadLatest(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Manifest.WalSeq == 0 {
		t.Fatal("fixture checkpoint carries no WAL fence")
	}
	got, applied, err := ReplayWAL(filepath.Join(dir, "wal"), base)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("replay applied no WAL entries past the fence")
	}
	if got.Manifest.NextID != want.NextID {
		t.Fatalf("NextID %d, want %d", got.Manifest.NextID, want.NextID)
	}
	if !reflect.DeepEqual(got.Sessions, want.Sessions) {
		t.Fatalf("replayed sessions diverged:\n got %+v\nwant %+v", got.Sessions, want.Sessions)
	}
	var keys []string
	for key := range got.Models {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	sort.Strings(want.Models)
	if !reflect.DeepEqual(keys, want.Models) {
		t.Fatalf("models %v, want %v", keys, want.Models)
	}
}
