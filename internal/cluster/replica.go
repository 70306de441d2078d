package cluster

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/models"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/wal"
)

// Warm-standby replication. The sender half (Node.ReplicateOnce) captures
// the hub's dirty-session delta — the same records the WAL journal flushes —
// builds it with serve.AppendDelta, and ships it as one sealed batch of a
// WAL stream to each of this node's ring successors over long-lived
// verbReplicate connections. The receiver half (Node.handleReplicate) reads
// each verified batch with wal.StreamReader and folds it with serve.Delta —
// the fold WAL replay uses — into a replicaStore: an in-memory,
// always-promotable image of the primary's sessions, at most one replication
// interval stale. Promotion (failover.go) turns that image into live serving
// sessions via serve.Hub.PromoteSession.

// replicaSet is the accumulated replica image of one primary.
type replicaSet struct {
	// hub is the primary's serving configuration, kept for diagnostics; the
	// standby promotes into its own hub, not a reconstruction of the
	// primary's.
	hub checkpoint.HubConfig
	// lastSeq is the last applied entry's per-connection stream sequence
	// number. A batch must start at lastSeq+1; anything else means a batch
	// was lost or a stale connection is still writing, and the link is torn
	// down so the next connection full-resyncs.
	lastSeq uint64
	// models and macs accumulate across tails: model weights are immutable
	// once resolved, so an image from an earlier connection stays valid.
	models map[string]models.Classifier
	macs   map[string]int64
	// sessions is the promotable image: every live session's latest
	// replicated record, volatile scheduler fields already overlaid.
	sessions map[uint64]checkpoint.SessionRecord
	batches  uint64
	lastAt   time.Time
	// lastRoot is the Merkle root of the last applied batch, as verified by
	// wal.StreamReader against the sender's seal. Promotion reports it with
	// lastSeq, so the promoting node states exactly which verified batch its
	// serving state descends from.
	lastRoot [wal.HashSize]byte
}

// replicaStore holds one replicaSet per primary replicating to this node.
// Its mutex is a leaf lock guarding pure map bookkeeping: batches are
// decoded from the network and sessions are promoted strictly outside it
// (take removes the whole set first), so no network, disk, or hub call ever
// runs under it.
type replicaStore struct {
	mu  sync.Mutex
	set map[string]*replicaSet
}

func newReplicaStore() *replicaStore {
	return &replicaStore{set: map[string]*replicaSet{}}
}

// beginTail resets the session image for a primary opening a fresh
// replication connection. Models survive the reset (immutable), the session
// image does not: the new tail's first batch is a full resync, and stale
// records must not outlive the connection that shipped them.
func (s *replicaStore) beginTail(src string) {
	s.mu.Lock()
	rs, ok := s.set[src]
	if !ok {
		rs = &replicaSet{
			models: map[string]models.Classifier{},
			macs:   map[string]int64{},
		}
		s.set[src] = rs
	}
	rs.sessions = map[uint64]checkpoint.SessionRecord{}
	rs.lastSeq = 0
	s.mu.Unlock()
}

// apply folds one verified batch, already decoded into d, into src's image
// and returns the live session count afterwards. Any error means the image
// can no longer be trusted — the caller tears the connection down and the
// next one resyncs from scratch.
func (s *replicaStore) apply(src string, b *wal.Batch, d *serve.Delta, now time.Time) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.set[src]
	if !ok {
		return 0, fmt.Errorf("cluster: replication batch from %s without an open tail", src)
	}
	if b.First != rs.lastSeq+1 {
		return 0, fmt.Errorf("cluster: replication batch [%d,%d] from %s, want first seq %d (stale connection?)", b.First, b.Last, src, rs.lastSeq+1)
	}
	if d.Refs == nil {
		return 0, fmt.Errorf("cluster: replication batch [%d,%d] from %s carries no refs manifest", b.First, b.Last, src)
	}
	// The refs are the primary's complete live view; a ref that does not
	// resolve at its version means this link missed state and must resync.
	if err := d.FoldInto(rs.sessions, rs.models, rs.macs); err != nil {
		return 0, fmt.Errorf("cluster: replica of %s out of sync: %v", src, err)
	}
	rs.lastSeq = b.Last
	rs.lastRoot = b.Root
	rs.hub = d.Refs.Hub
	rs.batches++
	rs.lastAt = now
	return len(rs.sessions), nil
}

// take removes and returns src's image — the promotion handoff. Promotion
// happens on the returned copy outside the store lock.
func (s *replicaStore) take(src string) (*replicaSet, bool) {
	s.mu.Lock()
	rs, ok := s.set[src]
	delete(s.set, src)
	s.mu.Unlock()
	return rs, ok
}

// drop discards src's image (clean leave, or a reap another member handles).
func (s *replicaStore) drop(src string) {
	s.mu.Lock()
	delete(s.set, src)
	s.mu.Unlock()
}

// total counts replica session records across all primaries (gauge feed).
func (s *replicaStore) total() int {
	s.mu.Lock()
	n := 0
	for _, rs := range s.set {
		n += len(rs.sessions)
	}
	s.mu.Unlock()
	return n
}

// sources lists the primaries with open images, sorted.
func (s *replicaStore) sources() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.set))
	for src := range s.set {
		out = append(out, src)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// replLink is one live replication stream to a standby.
type replLink struct {
	target   string
	conn     net.Conn
	sw       *wal.StreamWriter
	sent     map[string]struct{} // models already shipped on this stream
	lastRefs map[uint64]checkpoint.SessionRef
	ackBuf   []byte
}

// Standbys returns this node's current replication targets: its ring
// successors, replicaN deep.
func (n *Node) Standbys() []string {
	if n.replicaN <= 0 {
		return nil
	}
	return n.ring.Successors(n.id, n.replicaN)
}

// ReplicateOnce ships one dirty-delta batch to every standby, opening or
// reopening tails as needed. It is the body of the replication loop. Links
// to members that are no longer standbys (membership changed) are torn down;
// a failed batch tears its link down and backs the target off, and a later
// call reconnects with a full resync. Returns the first error encountered;
// the other standbys are still attempted.
func (n *Node) ReplicateOnce() error {
	return n.ReplicateAt(time.Now())
}

// ReplicateAt is ReplicateOnce against an explicit clock — the deterministic
// drive for tests, and the only consumer of the dial-backoff schedule: a
// target still inside its backoff window at now is skipped (counted on
// cogarm_cluster_replication_backoff_skips_total), not dialed.
func (n *Node) ReplicateAt(now time.Time) error {
	if n.replicaN <= 0 {
		return nil
	}
	// replMu serializes replication sweeps and owns n.links; network writes
	// happen while it is held by design — it is the replication worker's
	// private state, never taken by the serving or membership paths.
	n.replMu.Lock()
	defer n.replMu.Unlock()
	targets := n.Standbys()
	want := make(map[string]struct{}, len(targets))
	for _, t := range targets {
		want[t] = struct{}{}
	}
	for id, link := range n.links {
		if _, still := want[id]; !still {
			//cogarm:allow nolockblock -- replMu is the sweep's private lock (see above); Close here cannot stall serving
			link.conn.Close()
			delete(n.links, id)
			n.backoff.forget(id)
		}
	}
	t := clusterTel()
	if len(targets) == 0 {
		// Singleton fleet: nothing to replicate to is not staleness — a
		// climbing lag gauge here would page on every one-node deployment.
		t.replLag.Set(0)
		return nil
	}
	var firstErr error
	allOK := len(targets) > 0
	for _, target := range targets {
		link, ok := n.links[target]
		if !ok {
			if !n.backoff.ready(target, now) {
				// Inside the backoff window: the standby is not consulted at
				// all this sweep. Skipping is not a fresh failure — the pause
				// only grows when an actual attempt fails.
				t.replBackoffSkips.Inc()
				allOK = false
				continue
			}
			var err error
			//cogarm:allow nolockblock -- dialing under replMu serializes sweeps by design; no serving path waits on it
			if link, err = n.linkTo(target); err != nil {
				pause := n.backoff.failure(target, now)
				t.replFails.Inc()
				allOK = false
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: replication tail to %s (retry in %v): %w", target, pause, err)
				}
				continue
			}
			n.links[target] = link
		}
		//cogarm:allow nolockblock -- shipping under replMu serializes sweeps by design; no serving path waits on it
		if err := n.shipBatch(link); err != nil {
			//cogarm:allow nolockblock -- tearing down the failed link, same private-lock argument
			link.conn.Close()
			delete(n.links, target)
			pause := n.backoff.failure(target, now)
			t.replFails.Inc()
			allOK = false
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: replication batch to %s (retry in %v): %w", target, pause, err)
			}
			continue
		}
		n.backoff.success(target)
	}
	if allOK {
		n.lastReplOK.Store(now.UnixNano())
		t.replLag.Set(0)
	} else if last := n.lastReplOK.Load(); last > 0 {
		t.replLag.Set(now.Sub(time.Unix(0, last)).Seconds())
	}
	return firstErr
}

// linkTo opens a replication stream to a standby: dial, verb, identity
// handshake. The handshake ack proves the standby recognises this node as a
// ring member before any state is shipped; the stream header goes out with
// the first batch.
func (n *Node) linkTo(target string) (*replLink, error) {
	n.mu.Lock()
	addr, ok := n.peers[target]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no address for member %s", target)
	}
	conn, err := n.dial("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*replLink, error) {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := conn.Write([]byte{verbReplicate}); err != nil {
		return fail(err)
	}
	if err := writeMemberMsg(conn, memberMsg{ID: n.id, Addr: n.Addr()}); err != nil {
		return fail(err)
	}
	ack, _, err := readAck(conn, nil)
	if err != nil {
		return fail(err)
	}
	if ack.Err != "" {
		return fail(fmt.Errorf("remote: %s", ack.Err))
	}
	return &replLink{target: target, conn: conn, sw: wal.NewStreamWriter(conn), sent: map[string]struct{}{}}, nil
}

// shipBatch captures the dirty delta since the link's last acknowledged
// batch and writes it down the stream as one sealed batch, waiting for the
// standby's ack. Only an acknowledged batch advances lastRefs, so a batch
// the standby never applied is recaptured (as still-dirty sessions) by the
// next connection.
func (n *Node) shipBatch(link *replLink) error {
	delta := n.hub.CaptureDelta(link.lastRefs)
	link.conn.SetDeadline(time.Now().Add(ioTimeout))
	if err := serve.AppendDelta(link.sw, delta, link.sent); err != nil {
		return err
	}
	if _, _, _, err := link.sw.Seal(); err != nil {
		return err
	}
	ack, buf, err := readAck(link.conn, link.ackBuf)
	link.ackBuf = buf
	if err != nil {
		return err
	}
	if ack.Err != "" {
		return fmt.Errorf("remote: %s", ack.Err)
	}
	link.lastRefs = delta.Manifest.RefIndex()
	t := clusterTel()
	t.replBatchesOut.Inc()
	t.replRecords.Add(uint64(len(delta.Sessions)))
	return nil
}

// handleReplicate serves the receiving half of one replication stream: an
// identity handshake, then verified batches decoded outside the store lock
// and folded into the replica store until the connection closes. This is the one long-lived verb — the per-batch ack
// doubles as flow control, and every applied batch also counts as a
// heartbeat from the primary (a node that is replicating is alive).
func (n *Node) handleReplicate(conn net.Conn) {
	msg, _, err := readMemberMsg(conn, nil)
	if err != nil {
		writeAck(conn, ackMsg{Err: err.Error()})
		return
	}
	if !n.ring.Has(msg.ID) {
		writeAck(conn, ackMsg{Err: fmt.Sprintf("unknown member %s", msg.ID)})
		return
	}
	if err := writeAck(conn, ackMsg{}); err != nil {
		return
	}
	n.replicas.beginTail(msg.ID)
	sr := wal.NewStreamReader(conn)
	t := clusterTel()
	for {
		conn.SetDeadline(time.Now().Add(ioTimeout))
		b, err := sr.ReadBatch()
		if err != nil {
			if err != io.EOF {
				n.logf("cluster: replication tail from %s: %v", msg.ID, err)
			}
			return
		}
		d, err := serve.DecodeDelta(b.Entries)
		live := 0
		if err == nil {
			live, err = n.replicas.apply(msg.ID, b, d, time.Now())
		}
		if err != nil {
			n.logf("cluster: replication tail from %s: %v", msg.ID, err)
			writeAck(conn, ackMsg{Err: err.Error()})
			return
		}
		n.det.Beat(msg.ID, time.Now())
		t.replBatchesIn.Inc()
		t.replicaSessions.Set(float64(n.replicas.total()))
		if err := writeAck(conn, ackMsg{Handled: live}); err != nil {
			return
		}
	}
}
