package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"cognitivearm/internal/cluster/faultnet"
	"cognitivearm/internal/serve"
)

// Migration and membership edge cases under injected faults. All faults are
// byte- or dial-count-budgeted (faultnet), so every test cuts, refuses or
// drops at the same point on every run — no timing races.

// TestMigrationCutMidStreamRestoresEverySession: the join-handover connection
// is hard-cut mid-record at an exact byte offset (a crashed receiver as seen
// from the sender). The join must fail, the sender must restore every
// extracted session locally, and both rings must roll back to singletons —
// a failed join leaves no ghost member and loses no session.
func TestMigrationCutMidStreamRestoresEverySession(t *testing.T) {
	clf, norm := sharedModel(t)
	toB, _ := keysByOwner(t)

	nw := faultnet.NewNetwork(7)
	hubA := newHub(t, registryWith(clf))
	defer hubA.Stop()
	nodeA, err := NewNode(Config{ID: "node-a", Logf: t.Logf, Dial: nw.Dial,
		Rebind: func(serve.RestoredSession) (serve.Source, error) { return &scriptSource{}, nil },
	}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	for _, tag := range toB[:2] {
		if _, err := nodeA.Admit(serve.SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: norm, Tag: tag}); err != nil {
			t.Fatal(err)
		}
	}

	hubB := newHub(t, registryWith(clf))
	defer hubB.Stop()
	nodeB, err := NewNode(Config{ID: "node-b", Rebind: dropRebind, Logf: t.Logf}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	// The migration stream toward B dies after exactly 1000 bytes: past the
	// verb, header and manifest, inside the model record — a torn frame the
	// receiver's CRC layer rejects without restoring anything.
	nw.Plan(nodeB.Addr()).CutWritesAfter(1000)
	err = nodeB.Join(nodeA.Addr())
	if err == nil {
		t.Fatal("join over a cut migration stream reported success")
	}
	if n := hubA.Sessions(); n != 2 {
		t.Fatalf("sender holds %d sessions after failed handover, want all 2 restored", n)
	}
	if n := hubB.Sessions(); n != 0 {
		t.Fatalf("receiver holds %d sessions from a torn stream, want 0", n)
	}
	gotTags := map[string]bool{}
	for _, tag := range hubA.SessionKeys() {
		gotTags[tag] = true
	}
	if !gotTags[toB[0]] || !gotTags[toB[1]] {
		t.Fatalf("sender restored tags %v, want both of %v", hubA.SessionKeys(), toB[:2])
	}
	if got := nodeA.Ring().Nodes(); len(got) != 1 || got[0] != "node-a" {
		t.Fatalf("sender's ring is %v after rollback, want [node-a]", got)
	}
	if got := nodeB.Ring().Nodes(); len(got) != 1 || got[0] != "node-b" {
		t.Fatalf("joiner's ring is %v after rollback, want [node-b]", got)
	}
}

// TestMigrationForgedLengthAllocatesReceivedBytes: the migrate verb is
// served on the unauthenticated cluster port, so a stream that declares a
// 256 MiB record and then closes must cost the receiver about what was
// sent, not the declared length — and restore nothing.
func TestMigrationForgedLengthAllocatesReceivedBytes(t *testing.T) {
	clf, _ := sharedModel(t)
	hub := newHub(t, registryWith(clf))
	defer hub.Stop()
	node, err := NewNode(Config{ID: "node-b", Rebind: dropRebind, Logf: t.Logf}, hub)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	wire := []byte{verbMigrate}
	wire = append(wire, "CAWL"...)                         // WAL magic
	wire = binary.LittleEndian.AppendUint16(wire, 1)       // format version
	wire = binary.LittleEndian.AppendUint16(wire, 2)       // stream kind
	wire = append(wire, 1)                                 // entry frame
	wire = binary.LittleEndian.AppendUint32(wire, 256<<20) // declared payload length
	wire = append(wire, make([]byte, 4096)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	ack, _, err := readAck(conn, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" || ack.Handled != 0 {
		t.Fatalf("forged migration acked %+v, want an error with nothing handled", ack)
	}
	if n := hub.Sessions(); n != 0 {
		t.Fatalf("receiver holds %d sessions from a forged stream", n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("a %d-byte migration declaring 256 MiB allocated %d bytes", len(wire), got)
	}
}

// TestMigrationPartialRollbackExactRemainder: the receiver consumes the
// first streamed session, then its rebind factory fails. Its ack reports
// exactly how many sessions it handled, and the sender restores exactly the
// remainder — the session the receiver kept must not come back to life on
// the sender, and the one it rejected must not be lost.
func TestMigrationPartialRollbackExactRemainder(t *testing.T) {
	clf, norm := sharedModel(t)
	toB, _ := keysByOwner(t)

	hubA := newHub(t, registryWith(clf))
	defer hubA.Stop()
	nodeA, err := NewNode(Config{ID: "node-a", Logf: t.Logf,
		Rebind: func(serve.RestoredSession) (serve.Source, error) { return &scriptSource{}, nil },
	}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	// Admission order fixes session IDs, and migration streams sessions in ID
	// order — so toB[0] is handled first, and the injected rebind failure
	// lands deterministically on toB[1].
	for _, tag := range toB[:2] {
		if _, err := nodeA.Admit(serve.SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: norm, Tag: tag}); err != nil {
			t.Fatal(err)
		}
	}

	hubB := newHub(t, registryWith(clf))
	defer hubB.Stop()
	rebinds := 0
	nodeB, err := NewNode(Config{ID: "node-b", Logf: t.Logf,
		Rebind: func(rec serve.RestoredSession) (serve.Source, error) {
			rebinds++
			if rebinds > 1 {
				return nil, fmt.Errorf("injected rebind failure for %q", rec.Tag)
			}
			return &scriptSource{}, nil
		},
	}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	err = nodeB.Join(nodeA.Addr())
	if err == nil || !strings.Contains(err.Error(), "injected rebind failure") {
		t.Fatalf("join returned %v, want the injected rebind failure", err)
	}
	if n := hubB.Sessions(); n != 1 {
		t.Fatalf("receiver holds %d sessions, want exactly the 1 it acked", n)
	}
	if n := hubA.Sessions(); n != 1 {
		t.Fatalf("sender holds %d sessions, want exactly the 1 unhandled remainder", n)
	}
	var bTags, aTags []string
	for _, tag := range hubB.SessionKeys() {
		bTags = append(bTags, tag)
	}
	for _, tag := range hubA.SessionKeys() {
		aTags = append(aTags, tag)
	}
	if len(bTags) != 1 || bTags[0] != toB[0] {
		t.Fatalf("receiver kept %v, want the first streamed session %q", bTags, toB[0])
	}
	if len(aTags) != 1 || aTags[0] != toB[1] {
		t.Fatalf("sender restored %v, want the rejected remainder %q", aTags, toB[1])
	}
}

// TestAnnounceFailureRollsBackAnnouncedMember: a joiner announces itself to
// an existing member whose handover toward it is cut mid-stream. That member
// must ack an error and roll the joiner back out of its ring with every
// session restored — the announce path has the same no-ghost guarantee as
// the join path.
func TestAnnounceFailureRollsBackAnnouncedMember(t *testing.T) {
	clf, norm := sharedModel(t)

	hubA := newHub(t, registryWith(clf))
	defer hubA.Stop()
	nodeA, err := NewNode(Config{ID: "node-a", Rebind: dropRebind, Logf: t.Logf}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	nwB := faultnet.NewNetwork(11)
	hubB := newHub(t, registryWith(clf))
	defer hubB.Stop()
	nodeB, err := NewNode(Config{ID: "node-b", Logf: t.Logf, Dial: nwB.Dial,
		Rebind: func(serve.RestoredSession) (serve.Source, error) { return &scriptSource{}, nil },
	}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	if err := nodeB.Join(nodeA.Addr()); err != nil {
		t.Fatal(err)
	}

	// Keys B owns now but node-c will own once it joins: B's announce-time
	// handover toward C is the connection the fault plan cuts.
	scratch2, scratch3 := NewRing(0), NewRing(0)
	scratch2.Add("node-a")
	scratch2.Add("node-b")
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		scratch3.Add(id)
	}
	var keys []string
	for i := 0; len(keys) < 2; i++ {
		if i > 10000 {
			t.Fatal("ring never produced node-b→node-c keys")
		}
		k := fmt.Sprintf("subject:%d", i)
		if o2, _ := scratch2.Owner(k); o2 != "node-b" {
			continue
		}
		if o3, _ := scratch3.Owner(k); o3 == "node-c" {
			keys = append(keys, k)
		}
	}
	for _, tag := range keys {
		if _, err := nodeB.Admit(serve.SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: norm, Tag: tag}); err != nil {
			t.Fatal(err)
		}
	}
	before := hubB.Sessions()

	hubC := newHub(t, registryWith(clf))
	defer hubC.Stop()
	nodeC, err := NewNode(Config{ID: "node-c", Rebind: dropRebind, Logf: t.Logf}, hubC)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeC.Close()
	nwB.Plan(nodeC.Addr()).CutWritesAfter(1000)

	if err := nodeC.Join(nodeA.Addr()); err == nil {
		t.Fatal("join reported success although a member's handover toward the joiner was cut")
	}
	if nodeB.Ring().Has("node-c") {
		t.Fatalf("node B kept the joiner after a failed handover; ring = %v", nodeB.Ring().Nodes())
	}
	if n := hubB.Sessions(); n != before {
		t.Fatalf("node B holds %d sessions after rollback, want %d", n, before)
	}
	if n := hubC.Sessions(); n != 0 {
		t.Fatalf("joiner holds %d sessions from a torn stream, want 0", n)
	}
}

// TestDrainGhostReapedByDetector is satellite coverage for the drain
// escape hatch: when a draining node's leave notifications are lost, the
// survivor keeps a ghost member — and the failure detector, not an operator,
// reaps it. The ghost's stale replica image must NOT resurrect sessions that
// already migrated over during the drain.
func TestDrainGhostReapedByDetector(t *testing.T) {
	clf, norm := sharedModel(t)
	_, toA := keysByOwner(t)

	nw := faultnet.NewNetwork(3)
	hubA := newHub(t, registryWith(clf))
	defer hubA.Stop()
	nodeA, err := NewNode(Config{ID: "node-a", Replicas: 1, Logf: t.Logf, Dial: nw.Dial,
		Rebind: func(serve.RestoredSession) (serve.Source, error) { return &scriptSource{}, nil },
	}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	hubB := newHub(t, registryWith(clf))
	defer hubB.Stop()
	nodeB, err := NewNode(Config{ID: "node-b", Logf: t.Logf,
		Rebind: func(serve.RestoredSession) (serve.Source, error) { return &scriptSource{}, nil },
	}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	if err := nodeB.Join(nodeA.Addr()); err != nil {
		t.Fatal(err)
	}

	for _, tag := range toA[:2] {
		if _, err := nodeA.Admit(serve.SessionConfig{ModelKey: "rf", Source: &scriptSource{samples: scriptedEEG(0, 13, 200)}, Norm: norm, Tag: tag}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		hubA.TickAll()
		hubB.TickAll()
	}
	// B now holds a warm replica image of A's two sessions.
	if err := nodeA.ReplicateOnce(); err != nil {
		t.Fatal(err)
	}
	if st := nodeB.Status().(Status); st.ReplicaSessions != 2 {
		t.Fatalf("standby holds %d replica sessions, want 2", st.ReplicaSessions)
	}

	tel := clusterTel()
	reapsBefore := tel.reaps.Value()
	promotedBefore := tel.promoted.Value()

	// One more dial toward B is allowed — the drain handover — and every
	// dial after that (the leave notifications) is refused. The drain
	// succeeds, but B never hears the leave and keeps a ghost node-a.
	nw.Plan(nodeB.Addr()).AllowDials(1)
	if err := nodeA.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := hubA.Sessions(); n != 0 {
		t.Fatalf("drained node still holds %d sessions", n)
	}
	if n := hubB.Sessions(); n != 2 {
		t.Fatalf("survivor holds %d sessions after drain, want 2", n)
	}
	if !nodeB.Ring().Has("node-a") {
		t.Fatal("test premise broken: the lost leave notification should leave a ghost member")
	}

	// The detector reaps the ghost on silence alone — no operator action.
	reaped := nodeB.DetectFailures(time.Now().Add(time.Hour))
	if len(reaped) != 1 || reaped[0] != "node-a" {
		t.Fatalf("DetectFailures reaped %v, want the ghost [node-a]", reaped)
	}
	if got := nodeB.Ring().Nodes(); len(got) != 1 || got[0] != "node-b" {
		t.Fatalf("survivor's ring is %v after reaping the ghost, want [node-b]", got)
	}
	// The ghost's replica image is stale — its sessions already migrated here
	// during the drain. Promotion must skip every one of them.
	if n := hubB.Sessions(); n != 2 {
		t.Fatalf("survivor holds %d sessions after reap, want 2 (no resurrected duplicates)", n)
	}
	var tags []string
	for _, tag := range hubB.SessionKeys() {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	wantTags := append([]string(nil), toA[:2]...)
	sort.Strings(wantTags)
	for i, tag := range wantTags {
		if tags[i] != tag {
			t.Fatalf("survivor serves %v, want %v", tags, wantTags)
		}
	}
	if got := tel.reaps.Value() - reapsBefore; got != 1 {
		t.Fatalf("reap counter moved by %d, want 1", got)
	}
	if got := tel.promoted.Value() - promotedBefore; got != 0 {
		t.Fatalf("promoted-session counter moved by %d, want 0 (stale replicas skipped)", got)
	}
}
