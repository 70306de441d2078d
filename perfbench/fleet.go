package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cognitivearm/internal/control"
	"cognitivearm/internal/core"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/tensor"
)

// The benchmark sees the hub only from outside, through its public
// extension points: every session's Source is a benchmark tap that records
// what each drain hands the shard, a round-robin Placement tells the
// benchmark which shard each session lands on, and one probe goroutine per
// shard times when a tick's decisions are committed. In the traced run of
// the in-memory workloads a PredictBatchWS decorator times inference.

// clock reads monotonic time as ns since the run's base instant.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

type spanKind uint8

const (
	spanTick spanKind = iota
	spanDrain
	spanGen
	spanInfer
	spanFlush
	spanCheckpoint
)

var spanNames = [...]string{"tick", "drain", "gen", "infer", "flush", "checkpoint"}

// span is one traced interval. Drain, gen and infer spans are children of
// the tick (shard, tick); flush and checkpoint spans have no parent and no
// shard (-1).
type span struct {
	kind       spanKind
	shard      int16
	tick       int32
	start, end int64
}

// recorder holds everything the taps and probes record during a run.
type recorder struct {
	clk clock
	in  *inputs
	// streamStart is when sample 0 of every session is due, offset by the
	// session's phase (ns on clk).
	streamStart int64
	frozen      atomic.Bool // taps hand the hub nothing once set
	tracing     atomic.Bool
	shards      []*shardRec
}

// shardRec is the record of one shard. Every field except commit and
// probeMissed is written only by the shard's tick goroutine (inside the
// tick, under the shard lock); commit is written only by the shard's probe.
type shardRec struct {
	idx   int
	nSess int
	// probeSID is the session the probe reads to wait out the shard lock.
	probeSID serve.SessionID
	probe    chan int32

	drains int // drains so far; each tick drains every session once
	tick   int // index of the current tick, -1 before the first

	tickStart []int64 // per tick: start of its first drain
	commit    []int64 // per tick: when the probe got the shard lock after it
	decStart  []int32 // per tick: index of its first decision in decDue
	decDue    []int64 // per decision: due time of the newest sample it used

	spans   []span
	backlog []int32   // traced: samples left buffered at each drain
	transit []float64 // traced: drain minus due time of each checked sample (ms)

	overflow    bool // a preallocated record filled up; the run is invalid
	probeMissed atomic.Int64
}

// alloc sizes the per-shard records for maxTicks ticks. Recording appends
// only within this capacity, so taps never allocate inside a tick.
func (r *recorder) alloc(maxTicks, tracedTicks int, checkedPerShard []int) {
	for i, sh := range r.shards {
		sh.tick = -1
		sh.probe = make(chan int32, 4) // a few ticks of slack before a probe is skipped
		sh.tickStart = make([]int64, maxTicks)
		sh.commit = make([]int64, maxTicks)
		sh.decStart = make([]int32, maxTicks+1)
		sh.decDue = make([]int64, 0, maxTicks*sh.nSess)
		if tracedTicks > 0 {
			sh.spans = make([]span, 0, tracedTicks*(2*sh.nSess+1))
			sh.backlog = make([]int32, 0, tracedTicks*sh.nSess)
			perTick := maxSamplesPerTick
			sh.transit = make([]float64, 0, tracedTicks*checkedPerShard[i]*perTick)
		}
	}
}

// newTick opens tick bookkeeping at the first drain of a tick and wakes
// the shard's probe.
func (sh *shardRec) newTick(t0 int64) {
	sh.tick++
	if sh.tick >= len(sh.tickStart) {
		sh.overflow = true
		return
	}
	sh.tickStart[sh.tick] = t0
	sh.decStart[sh.tick] = int32(len(sh.decDue))
	select {
	case sh.probe <- int32(sh.tick):
	default:
		sh.probeMissed.Add(1)
	}
}

// runProbe times each tick's commit: Hub.Session needs the shard lock,
// which the tick holds from before its first drain until its decisions are
// committed, so the call returns just after the commit.
func (sh *shardRec) runProbe(hub *serve.Hub, clk clock) {
	for t := range sh.probe {
		hub.Session(sh.probeSID)
		sh.commit[t] = clk.now()
	}
}

// record appends s within the preallocated capacity.
func (sh *shardRec) record(s span) {
	if len(sh.spans) < cap(sh.spans) {
		sh.spans = append(sh.spans, s)
	} else {
		sh.overflow = true
	}
}

// checkRec is the full input history of one label-checked session.
type checkRec struct {
	id     serve.SessionID
	seqs   []uint64 // every sample handed to the hub, in order
	counts []int    // samples per non-empty drain
}

// tap is the benchmark side of one session.
type tap struct {
	rec   *recorder
	sh    *shardRec
	idx   int
	check *checkRec

	next     uint64 // replay cursor: next sequence number to hand out
	expect   uint64 // next sequence number expected, for gap counting
	gaps     uint64
	consumed uint64
}

// begin is the tap's entry into a drain: it opens the tick on the shard's
// first drain and reports whether the taps are still feeding the hub.
func (t *tap) begin() (t0 int64, feeding bool) {
	sh := t.sh
	t0 = t.rec.clk.now()
	first := sh.drains%sh.nSess == 0
	sh.drains++
	if first {
		sh.newTick(t0)
	}
	return t0, !t.rec.frozen.Load()
}

// end records one drain: got is what the hub received, read is when the
// source read finished, left the samples the source still buffers.
func (t *tap) end(got []stream.Sample, t0, read int64, left int) {
	sh := t.sh
	tracing := t.rec.tracing.Load()
	if n := len(got); n > 0 {
		if len(sh.decDue) < cap(sh.decDue) {
			sh.decDue = append(sh.decDue, t.rec.streamStart+int64(math.Round(got[n-1].Timestamp*1e9)))
		} else {
			sh.overflow = true
		}
		for i := range got {
			if seq := got[i].Seq; seq >= t.expect {
				t.gaps += seq - t.expect
				t.expect = seq + 1
			}
		}
		t.consumed += uint64(n)
		if c := t.check; c != nil {
			for i := range got {
				c.seqs = append(c.seqs, got[i].Seq)
				if tracing && len(sh.transit) < cap(sh.transit) {
					due := t.rec.streamStart + int64(math.Round(got[i].Timestamp*1e9))
					sh.transit = append(sh.transit, float64(read-due)/1e6)
				}
			}
			c.counts = append(c.counts, n)
		}
	}
	if tracing {
		if len(sh.backlog) < cap(sh.backlog) {
			sh.backlog = append(sh.backlog, int32(left))
		}
		tick := int32(sh.tick)
		sh.record(span{kind: spanDrain, shard: int16(sh.idx), tick: tick, start: t0, end: read})
		sh.record(span{kind: spanGen, shard: int16(sh.idx), tick: tick, start: read, end: t.rec.clk.now()})
	}
}

// replaySource replays a session's trace from memory on its open-loop
// schedule: a drain may take any sample already due, oldest first.
type replaySource struct{ *tap }

func (r replaySource) Read(max int) []stream.Sample { return r.ReadInto(nil, max) }

func (r replaySource) ReadInto(dst []stream.Sample, max int) []stream.Sample {
	t0, feeding := r.begin()
	if !feeding {
		return dst
	}
	in := r.rec.in
	due := in.dueBefore(r.idx, t0-r.rec.streamStart)
	base := len(dst)
	for ; r.next < due && len(dst)-base < max; r.next++ {
		dst = append(dst, stream.Sample{
			Seq:       r.next,
			Timestamp: float64(in.dueNs(r.idx, r.next)) / 1e9,
			Values:    in.values(r.idx, r.next),
		})
	}
	read := t0
	if r.rec.tracing.Load() {
		read = r.rec.clk.now()
	}
	r.end(dst[base:], t0, read, int(due-r.next))
	return dst
}

// udpSource is a tap around the daemon's RingSource over a UDP inlet. The
// embedded RingSource keeps the checkpoint extensions (pending snapshot and
// length) and closes the inlet on eviction.
type udpSource struct {
	serve.RingSource
	*tap
}

func (u *udpSource) Read(max int) []stream.Sample { return u.ReadInto(nil, max) }

func (u *udpSource) ReadInto(dst []stream.Sample, max int) []stream.Sample {
	t0, feeding := u.begin()
	if !feeding {
		return dst
	}
	base := len(dst)
	dst = u.RingSource.ReadInto(dst, max)
	read, left := t0, 0
	if u.rec.tracing.Load() {
		read = u.rec.clk.now()
		left = u.Ring.Len()
	}
	u.end(dst[base:], t0, read, left)
	return dst
}

// timedModel decorates the shared classifier to time batched inference in
// traced segments. Each shard gets its own instance (and model key), so the
// span knows its shard and tick.
type timedModel struct {
	models.Classifier
	sh  *shardRec
	rec *recorder
}

func (m *timedModel) PredictBatchWS(ws *tensor.Workspace, xs []*tensor.Matrix, dst []int) []int {
	if !m.rec.tracing.Load() {
		return models.PredictBatchWS(m.Classifier, ws, xs, dst)
	}
	t0 := m.rec.clk.now()
	dst = models.PredictBatchWS(m.Classifier, ws, xs, dst)
	m.sh.record(span{kind: spanInfer, shard: int16(m.sh.idx), tick: int32(m.sh.tick), start: t0, end: m.rec.clk.now()})
	return dst
}

// roundRobin places session i on shard i mod shards. For equal admissions
// it yields the same layout as the default LeastLoaded policy, and it lets
// the benchmark know each session's shard before admitting it.
type roundRobin struct {
	mu   sync.Mutex
	next int
}

func (p *roundRobin) Place(shards []serve.ShardInfo) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.next % len(shards)
	if shards[i].Sessions >= shards[i].Capacity {
		return 0, serve.ErrFleetFull
	}
	p.next++
	return i, nil
}

// fleet is one set-up hub with its sessions.
type fleet struct {
	hub    *serve.Hub
	clf    models.Classifier // the shared decoder, undecorated
	pipe   *core.Pipeline
	taps   []*tap
	inlets []*stream.UDPInlet
}

// cnnSpec is the benchtables serving CNN; untrained weights cost the same
// to serve as trained ones.
func cnnSpec(window int) models.Spec {
	return models.Spec{Family: models.FamilyCNN, WindowSize: window, Optimizer: "adam", LR: 1e-3,
		Dropout: 0.2, ConvLayers: 1, Filters: 32, Kernel: 5, Stride: 2, Pool: "none"}
}

// setupFleet does what a cold-starting daemon does: build the dataset
// stage, build the shared decoder once, and admit every session onto a hub
// with the daemon's default shards and kernel threads. It is the timed
// set-up; hub.Start comes later.
func setupFleet(wl workload, in *inputs, rec *recorder, timed bool, checked map[int]bool) (*fleet, error) {
	pipe, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var clf models.Classifier
	var spec models.Spec
	switch wl.family {
	case "rf":
		spec = models.Spec{Family: models.FamilyRF, WindowSize: pipe.Config.WindowSize, Trees: 50, MaxDepth: 12}
		if clf, _, err = pipe.TrainModel(spec); err != nil {
			return nil, err
		}
	case "cnn":
		spec = cnnSpec(pipe.Config.WindowSize)
		net, err := models.BuildNet(spec, 1)
		if err != nil {
			return nil, err
		}
		clf = &models.NNClassifier{Net: net, Spec: spec}
	default:
		return nil, fmt.Errorf("unknown model family %q", wl.family)
	}
	n := len(in.sessions)
	reg := serve.NewRegistry()
	hub, err := serve.NewHub(serve.Config{
		MaxSessionsPerShard: n,
		TickHz:              control.ClassifyRateHz,
		MaxIdleTicks:        300, // cogarmd -idle-evict default
		LatencyWindow:       1024,
		Placement:           &roundRobin{},
	}, reg)
	if err != nil {
		return nil, err
	}
	shards := hub.Config().Shards
	rec.shards = make([]*shardRec, shards)
	keys := make([]string, shards)
	for i := range rec.shards {
		sh := &shardRec{idx: i}
		rec.shards[i] = sh
		var model models.Classifier = clf
		keys[i] = wl.family
		if timed {
			model = &timedModel{Classifier: clf, sh: sh, rec: rec}
			keys[i] = fmt.Sprintf("%s/shard%d", wl.family, i)
		}
		if _, _, err := reg.GetOrBuild(keys[i], func() (models.Classifier, int64, error) {
			return model, models.OpsPerInference(spec), nil
		}); err != nil {
			hub.Stop()
			return nil, err
		}
	}
	f := &fleet{hub: hub, clf: clf, pipe: pipe}
	for i := 0; i < n; i++ {
		sh := rec.shards[i%shards]
		t := &tap{rec: rec, sh: sh, idx: i}
		var src serve.Source = replaySource{t}
		tag := fmt.Sprintf("replay:%d", i)
		if wl.udp {
			inlet, err := stream.NewUDPInlet(stream.NewVirtualClock(0, 0), 4096)
			if err != nil {
				hub.Stop()
				return nil, err
			}
			f.inlets = append(f.inlets, inlet)
			src = &udpSource{RingSource: serve.RingSource{Ring: inlet.Ring, Closer: inlet}, tap: t}
			tag = fmt.Sprintf("inlet:%d", i)
		}
		id, err := hub.Admit(serve.SessionConfig{
			ModelKey: keys[i%shards],
			Source:   src,
			Norm:     pipe.NormFor(in.sessions[i].subject),
			Tag:      tag,
		})
		if err != nil {
			hub.Stop()
			return nil, fmt.Errorf("admit session %d: %w", i, err)
		}
		if sh.nSess == 0 {
			sh.probeSID = id
		}
		sh.nSess++
		if checked[i] {
			t.check = &checkRec{id: id}
		}
		f.taps = append(f.taps, t)
	}
	return f, nil
}

// referenceCounts recomputes one checked session's labels offline: the
// samples it drained, pushed through a fresh control.Windower in the same
// per-drain groups, classified one window at a time with Predict (batched
// and single predictions are bitwise-identical).
func (f *fleet) referenceCounts(in *inputs, t *tap) ([eeg.NumActions]uint64, error) {
	var counts [eeg.NumActions]uint64
	win, err := control.NewWindower(eeg.SampleRate, eeg.NumChannels, f.clf.WindowSize(), f.pipe.NormFor(in.sessions[t.idx].subject))
	if err != nil {
		return counts, err
	}
	next := 0
	for _, n := range t.check.counts {
		for _, seq := range t.check.seqs[next : next+n] {
			win.Push(in.values(t.idx, seq))
		}
		next += n
		if win.Ready() {
			if a := f.clf.Predict(win.Window()); a >= 0 && a < eeg.NumActions {
				counts[a]++
			}
		}
	}
	return counts, nil
}
