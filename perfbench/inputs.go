package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"

	"cognitivearm/internal/eeg"
)

// workload is one named traffic mix. Every workload is open loop: sample k
// of a session is due at a fixed time on the session's own 125 Hz schedule
// (stretched by its clock drift), whether or not the hub keeps up.
type workload struct {
	name string
	why  string
	// sessions is the fleet size; checked of them (seeded) get their labels
	// recomputed offline and compared with the hub's.
	sessions, checked int
	// family is the shared decoder: "rf" (50 trees, depth 12) or "cnn".
	family string
	// udp streams every session over loopback UDP, one inlet each, from a
	// separate single-threaded sender process that sends 40 ms chunks, as
	// cogarmd's demo streamers and loadgen do; otherwise sessions replay
	// their traces from memory.
	udp bool
	// journal runs a serve.Journal beside the ticks: a flush every
	// journalEvery and one checkpoint in each timed window.
	journal bool
	// drift spreads the sessions' clock rates evenly over ±drift (a
	// fraction); jitterMs is the mean of the exponential send delay.
	drift, jitterMs float64
}

var workloads = []workload{
	{
		name: "rf-fleet", sessions: 3000, checked: 32, family: "rf",
		why: "3000 in-memory sessions on the RF decoder: stresses filter, window, features and the forest; stream, tensor and wal idle",
	},
	{
		name: "cnn-fleet", sessions: 1200, checked: 32, family: "cnn",
		why: "1200 in-memory sessions on the CNN decoder: batched GEMM in nn/tensor dominates; features and forest bypassed",
	},
	{
		name: "udp-journal", sessions: 400, checked: 32, family: "rf", udp: true, journal: true,
		drift: 0.008, jitterMs: 1,
		why: "400 UDP inlets fed 40 ms chunks by a separate sender, clocks drifting up to 0.8% either way, jittered; RF decoder beside a WAL journal. Cluster replication is not measured yet",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

const (
	samplePeriodNs = int64(1e9 / eeg.SampleRate) // 8 ms at 125 Hz
	traceCount     = 16
	traceSamples   = 30 * int(eeg.SampleRate) // 30 s per recorded trace
	jitterCapMul   = 5                        // jitter is capped at 5× its mean
)

// traceSubjects are the synthetic participants traces are recorded from:
// the subjects core.DefaultConfig trains on, so each has its own norm.
var traceSubjects = []int{0, 1, 2}

// inputs is everything a run feeds the hub, derived from the seed alone:
// a pool of pre-recorded EEG traces and each session's replay parameters.
type inputs struct {
	seed     uint64
	jitterNs float64 // mean send jitter (0 = none)
	traces   [][]float64
	sessions []sessionInput
}

// sessionInput places one session on the shared traces and the clock.
type sessionInput struct {
	subject int
	trace   int
	offset  int     // trace row of sequence number 0
	phaseNs int64   // due time of sample 0 after the stream start
	period  float64 // host-clock sample period in ns (8 ms / (1+drift))
}

// makeInputs records traceCount traces (each subject wandering between
// intents every 2–4 s) and places n sessions on them: a random trace, start
// row and phase, and a drift taken without repetition from an even spread
// over ±wl.drift, so every seed sees the same set of drifts.
func makeInputs(wl workload, n int, seed uint64) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x5eedbe9c))
	in := &inputs{seed: seed, jitterNs: wl.jitterMs * 1e6, traces: make([][]float64, traceCount)}
	for t := range in.traces {
		gen := eeg.NewGenerator(eeg.NewSubject(traceSubjects[t%len(traceSubjects)]), rng.Uint64())
		tr := make([]float64, 0, traceSamples*eeg.NumChannels)
		state, left := eeg.Idle, 0
		for k := 0; k < traceSamples; k++ {
			if left == 0 {
				state = eeg.Action(rng.IntN(eeg.NumActions))
				left = int(eeg.SampleRate) * (2 + rng.IntN(3))
			}
			left--
			v := gen.Next(state)
			tr = append(tr, v[:]...)
		}
		in.traces[t] = tr
	}
	perm := rng.Perm(n)
	in.sessions = make([]sessionInput, n)
	for s := range in.sessions {
		drift := 0.0
		if n > 1 {
			drift = wl.drift * (2*float64(perm[s])/float64(n-1) - 1)
		}
		tr := rng.IntN(traceCount)
		in.sessions[s] = sessionInput{
			subject: traceSubjects[tr%len(traceSubjects)],
			trace:   tr,
			offset:  rng.IntN(traceSamples),
			phaseNs: rng.Int64N(samplePeriodNs),
			period:  float64(samplePeriodNs) / (1 + drift),
		}
	}
	return in
}

// values returns the channel values of sample seq of session s. The slice
// aliases the shared trace; the hub only reads it.
func (in *inputs) values(s int, seq uint64) []float64 {
	si := &in.sessions[s]
	row := (si.offset + int(seq%uint64(traceSamples))) % traceSamples
	return in.traces[si.trace][row*eeg.NumChannels : (row+1)*eeg.NumChannels]
}

// dueNs is when sample seq of session s is scheduled, in ns after the
// stream start.
func (in *inputs) dueNs(s int, seq uint64) int64 {
	si := &in.sessions[s]
	return si.phaseNs + int64(float64(seq)*si.period)
}

// dueBefore counts the samples of session s due at or before t (ns after
// the stream start).
func (in *inputs) dueBefore(s int, t int64) uint64 {
	si := &in.sessions[s]
	if t < si.phaseNs {
		return 0
	}
	k := uint64(float64(t-si.phaseNs)/si.period) + 1
	for k > 0 && in.dueNs(s, k-1) > t { // float rounding at the boundary
		k--
	}
	for in.dueNs(s, k) <= t {
		k++
	}
	return k
}

// jitter is the send delay of sample seq of session s: exponential with
// mean in.jitterNs, capped, and a pure function of (seed, s, seq).
func (in *inputs) jitter(s int, seq uint64) int64 {
	if in.jitterNs == 0 {
		return 0
	}
	u := float64(splitmix(in.seed^splitmix(uint64(s)<<32|seq&0xffffffff))>>11) / (1 << 53)
	return int64(math.Min(-math.Log1p(-u), jitterCapMul) * in.jitterNs)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// digest hashes the traces, every session's placement and drift, and the
// first jitterDigestSamples jitter values of every session, so two runs can
// show they were fed byte-identical inputs.
func (in *inputs) digest() string {
	const jitterDigestSamples = 1024
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, tr := range in.traces {
		for _, v := range tr {
			put(math.Float64bits(v))
		}
	}
	for s, si := range in.sessions {
		put(uint64(si.subject))
		put(uint64(si.trace))
		put(uint64(si.offset))
		put(uint64(si.phaseNs))
		put(math.Float64bits(si.period))
		for k := uint64(0); k < jitterDigestSamples; k++ {
			put(uint64(in.jitter(s, k)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
