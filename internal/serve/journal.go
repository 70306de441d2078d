package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/models"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/wal"
)

// The serve journal: the hub's write-ahead log. Between checkpoints, every
// flush captures the dirty-session delta (the same sweep replication runs),
// appends it to the WAL as one Merkle-sealed batch, and drains the process
// event ring into the same batch as the durable audit trail. Recovery is
// checkpoint base + WAL replay: ReplayWAL folds every sealed entry past the
// checkpoint's WalSeq over the loaded state, so a daemon killed between
// checkpoints loses at most one flush interval instead of one checkpoint
// interval.
//
// A delta has one format wherever it goes. AppendDelta builds its entries
// onto an Appender — the journal's wal.Log, or the wal.StreamWriter of a
// replication link or a migration — and Delta decodes sealed entries back
// and folds them, for ReplayWAL and for the cluster standby alike.
//
// Layering: the journal lives in serve because it converts hub state to WAL
// entries, exactly as persist.go converts hub state to checkpoint files.
// internal/wal stays ignorant of sessions; internal/checkpoint stays ignorant
// of the log. The one shared artifact is Manifest.WalSeq — the fence that
// keeps replay from applying entries a newer checkpoint already contains.

// walModel is the KindModel payload: one resolved model, frozen at journal
// time, so a WAL-only replay can rebuild sessions with no checkpoint at all.
type walModel struct {
	Key     string
	MACs    int64
	Payload []byte // models.Save bytes
}

// Appender takes delta entries: a *wal.Log or a *wal.StreamWriter.
type Appender interface {
	Append(kind wal.Kind, data []byte) (uint64, error)
}

// AppendDelta appends one delta batch to dst: every model in state not yet
// in sent (each marked sent as it is appended), then each session record
// followed by its decision summary, then the refs manifest — state's
// manifest with Sessions set to the record count. It does not seal, so the
// caller can add entries (the journal appends its audit events) before it
// does.
func AppendDelta(dst Appender, state *checkpoint.FleetState, sent map[string]struct{}) error {
	keys := make([]string, 0, len(state.Models))
	for key := range state.Models {
		if _, done := sent[key]; !done {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		var payload bytes.Buffer
		if err := models.Save(&payload, state.Models[key]); err != nil {
			return fmt.Errorf("serve: delta model %q: %w", key, err)
		}
		var buf bytes.Buffer
		wm := walModel{Key: key, MACs: state.ModelMACs[key], Payload: payload.Bytes()}
		if err := gob.NewEncoder(&buf).Encode(&wm); err != nil {
			return fmt.Errorf("serve: delta model %q: %w", key, err)
		}
		if _, err := dst.Append(wal.KindModel, buf.Bytes()); err != nil {
			return err
		}
		sent[key] = struct{}{}
	}
	var scratch []byte
	for i := range state.Sessions {
		rec := &state.Sessions[i]
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			return fmt.Errorf("serve: delta session %d: %w", rec.ID, err)
		}
		if _, err := dst.Append(wal.KindSession, buf.Bytes()); err != nil {
			return err
		}
		scratch = wal.EncodeDecision(scratch[:0], wal.Decision{
			Session: rec.ID, Ver: rec.Ver, Decoded: rec.Decoded, Agreed: rec.Agreed,
		})
		if _, err := dst.Append(wal.KindDecision, scratch); err != nil {
			return err
		}
	}
	man := state.Manifest
	man.Sessions = len(state.Sessions)
	var mbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(&man); err != nil {
		return fmt.Errorf("serve: delta refs: %w", err)
	}
	_, err := dst.Append(wal.KindRefs, mbuf.Bytes())
	return err
}

// Delta is a run of sealed delta entries decoded for folding: one stream
// batch, or every WAL entry past a checkpoint's fence.
type Delta struct {
	// Records holds the latest record per session, in the order each
	// session first appeared.
	Records []checkpoint.SessionRecord
	// Models and MACs hold the models the entries carried.
	Models map[string]models.Classifier
	MACs   map[string]int64
	// Refs is the last refs manifest seen, nil before one.
	Refs *checkpoint.Manifest
	// Entries counts every entry added, audit and decision history included.
	Entries int

	index map[uint64]int // session ID → position in Records
}

// Add decodes one sealed entry into d. Audit and decision entries are
// history, not state: they are counted and skipped. Errors wrap
// checkpoint.ErrCorrupt.
func (d *Delta) Add(e wal.Entry) error {
	switch e.Kind {
	case wal.KindSession:
		var rec checkpoint.SessionRecord
		if err := gob.NewDecoder(bytes.NewReader(e.Data)).Decode(&rec); err != nil {
			return fmt.Errorf("%w: wal entry %d: session record: %v", checkpoint.ErrCorrupt, e.Seq, err)
		}
		if i, ok := d.index[rec.ID]; ok {
			d.Records[i] = rec
		} else {
			if d.index == nil {
				d.index = make(map[uint64]int)
			}
			d.index[rec.ID] = len(d.Records)
			d.Records = append(d.Records, rec)
		}
	case wal.KindRefs:
		var man checkpoint.Manifest
		if err := gob.NewDecoder(bytes.NewReader(e.Data)).Decode(&man); err != nil {
			return fmt.Errorf("%w: wal entry %d: refs manifest: %v", checkpoint.ErrCorrupt, e.Seq, err)
		}
		if man.Hub.Shards < 1 || man.Hub.MaxSessionsPerShard < 1 || man.Hub.TickHz <= 0 {
			return fmt.Errorf("%w: wal entry %d: refs manifest hub config %+v", checkpoint.ErrCorrupt, e.Seq, man.Hub)
		}
		d.Refs = &man
	case wal.KindModel:
		var wm walModel
		if err := gob.NewDecoder(bytes.NewReader(e.Data)).Decode(&wm); err != nil {
			return fmt.Errorf("%w: wal entry %d: model: %v", checkpoint.ErrCorrupt, e.Seq, err)
		}
		clf, err := models.Load(bytes.NewReader(wm.Payload))
		if err != nil {
			return fmt.Errorf("%w: wal model %q: %v", checkpoint.ErrCorrupt, wm.Key, err)
		}
		if d.Models == nil {
			d.Models = make(map[string]models.Classifier)
			d.MACs = make(map[string]int64)
		}
		d.Models[wm.Key] = clf
		d.MACs[wm.Key] = wm.MACs
	case wal.KindAudit, wal.KindDecision:
		// History, not state.
	default:
		return fmt.Errorf("%w: wal entry %d: unknown kind %d", checkpoint.ErrCorrupt, e.Seq, e.Kind)
	}
	d.Entries++
	return nil
}

// DecodeDelta decodes the entries of one verified stream batch.
func DecodeDelta(entries []wal.Entry) (*Delta, error) {
	var d Delta
	for _, e := range entries {
		if err := d.Add(e); err != nil {
			return nil, err
		}
	}
	return &d, nil
}

// FoldInto applies d to a session image: the image gains the models it
// lacks, each record replaces its session's, and the last refs view, when
// d has one, prunes departed sessions and overlays the volatile scheduler
// fields (checkpoint.FoldRefs). On error the image is partly folded and
// must be discarded.
func (d *Delta) FoldInto(sessions map[uint64]checkpoint.SessionRecord, clfs map[string]models.Classifier, macs map[string]int64) error {
	for key, clf := range d.Models {
		if _, ok := clfs[key]; !ok {
			clfs[key] = clf
			macs[key] = d.MACs[key]
		}
	}
	for _, rec := range d.Records {
		sessions[rec.ID] = rec
	}
	if d.Refs == nil {
		return nil
	}
	return checkpoint.FoldRefs(sessions, d.Refs.Refs)
}

// Journal couples a Hub to a wal.Log. All methods are safe for concurrent
// use; Flush and Checkpoint serialize on the journal's own mutex, never on a
// tick-path lock.
type Journal struct {
	hub *Hub
	log *wal.Log

	mu        sync.Mutex
	lastRefs  map[uint64]checkpoint.SessionRef
	sent      map[string]struct{} // models already journaled this process
	lastAudit uint64              // last event-ring seq drained
	events    []obs.Event         // reusable snapshot buffer
}

// NewJournal opens (and, after a crash, recovers) the WAL in opts.Dir and
// binds it to hub. The returned RecoveryInfo is the WAL's own report of what
// Open found; the caller decides whether to replay it (ReplayWAL) before the
// hub serves.
//
// The first Flush after construction captures the full fleet (lastRefs
// starts nil), so the WAL always holds a complete base from this process —
// a crash before the first checkpoint is still WAL-recoverable.
func NewJournal(hub *Hub, opts wal.Options) (*Journal, wal.RecoveryInfo, error) {
	if hub == nil {
		return nil, wal.RecoveryInfo{}, fmt.Errorf("serve: journal: nil hub")
	}
	log, info, err := wal.Open(opts)
	if err != nil {
		return nil, info, err
	}
	return &Journal{
		hub:  hub,
		log:  log,
		sent: make(map[string]struct{}),
	}, info, nil
}

// Log exposes the underlying WAL for status reporting and admin tooling.
func (j *Journal) Log() *wal.Log { return j.log }

// Status returns the WAL section of /statusz (assign to StatusDoc.Wal).
func (j *Journal) Status() wal.Status { return j.log.Status() }

// Flush journals one batch: every model not yet journaled this process, a
// full record plus decision summary per dirty session, the refs manifest
// (the authoritative live view replay prunes and overlays by), and the audit
// events recorded since the previous flush — then seals the batch, which is
// the durability point. An empty interval (nothing dirty, no events) appends
// and seals nothing. Returns the batch's Merkle root and the last sealed
// entry sequence.
func (j *Journal) Flush() (root [wal.HashSize]byte, last uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	//cogarm:allow nolockblock -- journal mutex exists to serialize flush/checkpoint I/O; no tick-path code takes it
	return j.flushLocked()
}

func (j *Journal) flushLocked() (root [wal.HashSize]byte, last uint64, err error) {
	delta := j.hub.CaptureDelta(j.lastRefs)
	j.events = obs.DefaultEvents().Snapshot(j.events[:0])
	pendingEvents := 0
	for _, ev := range j.events {
		if ev.Seq > j.lastAudit {
			pendingEvents++
		}
	}
	if len(delta.Sessions) == 0 && pendingEvents == 0 && j.refsUnchanged(delta) {
		return root, j.log.LastSealed(), nil
	}

	if err := AppendDelta(j.log, delta, j.sent); err != nil {
		return root, 0, err
	}
	var scratch []byte
	maxEv := j.lastAudit
	for _, ev := range j.events {
		if ev.Seq <= j.lastAudit {
			continue
		}
		scratch = wal.EncodeEvent(scratch[:0], ev)
		if _, err := j.log.Append(wal.KindAudit, scratch); err != nil {
			return root, 0, err
		}
		if ev.Seq > maxEv {
			maxEv = ev.Seq
		}
	}
	root, _, last, err = j.log.Seal()
	if err != nil {
		return root, 0, err
	}
	// Only a sealed batch advances the dirty fence and the audit cursor: an
	// unsealed append is exactly what crash recovery drops, so it must be
	// recaptured (still dirty, still undrained) by the next flush.
	j.lastRefs = delta.Manifest.RefIndex()
	j.lastAudit = maxEv
	return root, last, nil
}

// refsUnchanged reports whether delta's live view matches the last journaled
// one — if a session departed (or appeared with no dirty record, e.g. via
// promotion), the refs manifest must still be journaled even when no session
// record is.
func (j *Journal) refsUnchanged(delta *checkpoint.FleetState) bool {
	if len(delta.Manifest.Refs) != len(j.lastRefs) {
		return false
	}
	for _, ref := range delta.Manifest.Refs {
		prev, ok := j.lastRefs[ref.ID]
		if !ok || prev.Ver != ref.Ver {
			return false
		}
	}
	return true
}

// Checkpoint flushes, writes a checkpoint fenced at the WAL's sealed
// frontier, and — only after the checkpoint is durable — rotates the active
// segment and truncates every segment the checkpoint fully covers. A crash
// at any point leaves a recoverable pair: before the checkpoint, the old
// base plus a longer WAL; after it, the new base plus whatever the WAL still
// holds (replay skips entries at or below the manifest's WalSeq).
func (j *Journal) Checkpoint(root string) (string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	//cogarm:allow nolockblock -- journal mutex exists to serialize flush/checkpoint I/O; no tick-path code takes it
	if _, _, err := j.flushLocked(); err != nil {
		return "", err
	}
	last := j.log.LastSealed()
	//cogarm:allow nolockblock -- journal mutex exists to serialize flush/checkpoint I/O; no tick-path code takes it
	dir, err := j.hub.checkpointWithWal(root, last)
	if err != nil {
		return "", err
	}
	//cogarm:allow nolockblock -- same journal-private lock; rotation is the compaction half of the checkpoint
	if err := j.log.Rotate(); err != nil {
		return dir, fmt.Errorf("serve: wal rotate after checkpoint: %w", err)
	}
	//cogarm:allow nolockblock -- same journal-private lock; truncation is the compaction half of the checkpoint
	if _, err := j.log.TruncateBelow(last); err != nil {
		return dir, fmt.Errorf("serve: wal truncate after checkpoint: %w", err)
	}
	return dir, nil
}

// Close seals and closes the underlying WAL.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	//cogarm:allow nolockblock -- journal mutex exists to serialize flush/checkpoint I/O; no tick-path code takes it
	return j.log.Close()
}

// ReplayWAL folds the sealed WAL entries in dir over base — the recovery
// composition `checkpoint base + WAL tail`. Entries with seq at or below
// base's Manifest.WalSeq are already inside the checkpoint and are skipped.
// A nil base replays from nothing: legal whenever the WAL holds a full base
// (which it does for any WAL written by this process structure, since the
// first flush after daemon start is a full capture). Returns the replayed
// state (base itself when the WAL adds nothing), and how many entries were
// applied.
//
// The folded state is exactly what the crashed hub's next checkpoint would
// have contained as of the last sealed flush: latest record per session,
// departures pruned by the final refs view, volatile scheduler fields
// overlaid from it. Audit and decision entries are durable history, not
// state — replay skips them.
func ReplayWAL(dir string, base *checkpoint.FleetState) (*checkpoint.FleetState, int, error) {
	var fence uint64
	if base != nil {
		fence = base.Manifest.WalSeq
	}
	var d Delta
	err := wal.Dump(dir, func(e wal.Entry) error {
		if !e.Sealed || e.Seq <= fence {
			return nil
		}
		return d.Add(e)
	})
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return base, 0, nil // no WAL directory yet: nothing to fold
		}
		return nil, 0, err
	}
	if d.Entries == 0 {
		return base, 0, nil
	}
	if base == nil {
		if d.Refs == nil {
			return nil, 0, fmt.Errorf("%w: wal replay without a checkpoint base needs a refs entry", checkpoint.ErrCorrupt)
		}
		base = &checkpoint.FleetState{
			Manifest:  *d.Refs,
			Models:    make(map[string]models.Classifier),
			ModelMACs: make(map[string]int64),
		}
	}
	byID := make(map[uint64]checkpoint.SessionRecord, len(base.Sessions)+len(d.Records))
	for _, rec := range base.Sessions {
		byID[rec.ID] = rec
	}
	// The final refs view is authoritative. A live ref with no record at
	// its journaled version means the WAL and the checkpoint disagree about
	// history, which replay must not paper over.
	if err := d.FoldInto(byID, base.Models, base.ModelMACs); err != nil {
		return nil, 0, fmt.Errorf("%w: wal replay: %v", checkpoint.ErrCorrupt, err)
	}
	if d.Refs != nil && d.Refs.NextID > base.Manifest.NextID {
		base.Manifest.NextID = d.Refs.NextID
	}
	out := make([]checkpoint.SessionRecord, 0, len(byID))
	for _, rec := range byID {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	base.Sessions = out
	base.Manifest.Sessions = len(out)
	return base, d.Entries, nil
}

// RestoreHubWal is the WAL-aware resume path: load the newest valid
// checkpoint under ckptRoot (tolerating its absence), replay the WAL tail in
// walDir over it, and restore a hub from the result. It returns the hub, the
// checkpoint directory used ("" when the restore was WAL-only), and the
// number of WAL entries applied. checkpoint.ErrNoCheckpoint (wrapped) comes
// back only when neither a checkpoint nor a replayable WAL exists.
func RestoreHubWal(ckptRoot, walDir string, newSource SourceFactory) (*Hub, string, int, error) {
	base, dir, err := checkpoint.LoadLatest(ckptRoot)
	if err != nil {
		base, dir = nil, ""
	}
	state, applied, rerr := ReplayWAL(walDir, base)
	if rerr != nil {
		return nil, "", 0, rerr
	}
	if state == nil {
		if err != nil {
			return nil, "", 0, err // no checkpoint, empty WAL: surface the load error
		}
		return nil, "", 0, fmt.Errorf("serve: restore: empty checkpoint and wal")
	}
	hub, err := RestoreHub(state, newSource)
	if err != nil {
		return nil, "", 0, err
	}
	return hub, dir, applied, nil
}
