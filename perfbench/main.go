// Command perfbench is CognitiveArm's serving benchmark. It runs one named
// workload against the production paced loop (serve.Hub.Start, shards and
// kernel threads at the daemon's defaults), feeds every session a
// pre-recorded trace on an open-loop 125 Hz schedule, checks the labels of a
// seeded subset of sessions against an offline recomputation, and prints
// its metrics, the last line being one JSON object.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload rf-fleet --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --validate            # every workload, briefly; fails on a wrong label
//	bash perfbench/run.sh --manifest > BENCHMARK.json
//	bash perfbench/run.sh --compare OLD_DIR NEW_DIR
//
// --trace 0 prints the end-to-end metrics of one untraced timed window.
// --trace 1 alternates untraced and traced segments of the window and
// prints the per-layer metrics: spans recorded in memory at drain, tick
// commit, infer, flush and checkpoint, written to .bench_build/trace/ at the
// end, and a per-layer self-time table checked against the hub's own tick
// clock.
// Every run also writes its result, with a host fingerprint, under
// .bench_build/results/; --compare refuses results from different hosts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"cognitivearm/internal/control"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/wal"
)

const (
	tickHz       = control.ClassifyRateHz
	tickNs       = int64(1e9) / tickHz
	budgetMs     = 1e3 / tickHz // one decision per session per tick period
	setupReps    = 5
	warmup       = 3 * time.Second
	startDelay   = 500 * time.Millisecond // hub start to sample 0
	journalEvery = 2 * time.Second        // cogarmd -wal-every default
	genShareMax  = 5.0                    // % of tick time the benchmark may spend inside ticks
	tickAgreeMax = 5.0                    // % the span tick may differ from the hub's own tick clock
	// slices splits each timed window; latency percentiles are medians over
	// the slices, so a burst on a shared host moves one slice.
	// A traced window has twice as many, alternately untraced and traced.
	slices = 5
	// maxSamplesPerTick bounds the samples one drain takes (125 Hz / 15 Hz,
	// rounded up, plus slack).
	maxSamplesPerTick = int(eeg.SampleRate)/tickHz + 2
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run")
		seed         = flag.Uint64("seed", 1, "input seed")
		seconds      = flag.Int("seconds", runSeconds, "length of the timed window")
		trace        = flag.Int("trace", 0, "1 = trace alternate segments of the window and print per-layer metrics")
		validate     = flag.Bool("validate", false, "run every workload briefly and fail on any wrong label")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json")
		compare      = flag.Bool("compare", false, "compare result directories: --compare OLD NEW")
		senderMode   = flag.Bool("sender", false, "internal: run as the UDP sender process")
	)
	flag.Parse()
	var err error
	switch {
	case *senderMode:
		err = runSender()
	case *manifest:
		err = writeManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("--compare needs two result directories")
		} else {
			err = compareResults(flag.Arg(0), flag.Arg(1))
		}
	case *validate:
		err = runValidate()
	default:
		err = runBenchmark(*workloadName, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runBenchmark(name string, seed uint64, seconds int, traced bool) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := checkCheckout(); err != nil {
		return err
	}
	fp := takeFingerprint()
	fmt.Printf("host: %s | GOMAXPROCS %d | %s | source %s\n", fp.CPU, fp.GOMAXPROCS, fp.GoVersion, fp.source())
	res, err := run(runOpts{wl: wl, sessions: wl.sessions, seed: seed, seconds: float64(seconds),
		traced: traced, setupReps: setupReps, warmup: warmup})
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if err := res.save(fp, seed, seconds); err != nil {
		return err
	}
	if traced {
		if errs := res.checks(); len(errs) > 0 {
			return fmt.Errorf("invalid traced run: %s", strings.Join(errs, "; "))
		}
	}
	return res.emit(os.Stdout)
}

// runValidate checks input determinism and BENCHMARK.json, then runs every
// workload at a tenth of its size for a short traced window and fails on
// any wrong label or a failed restore.
func runValidate() error {
	if err := checkCheckout(); err != nil {
		return err
	}
	var want strings.Builder
	if err := writeManifest(&want); err != nil {
		return err
	}
	if have, err := os.ReadFile("BENCHMARK.json"); err != nil || string(have) != want.String() {
		return fmt.Errorf("BENCHMARK.json differs from the benchmark's tables (regenerate with --manifest)")
	}
	failed := false
	for _, wl := range workloads {
		n := max(wl.sessions/10, 20)
		same := makeInputs(wl, n, 7).digest() == makeInputs(wl, n, 7).digest()
		differ := makeInputs(wl, n, 7).digest() != makeInputs(wl, n, 8).digest()
		res, err := run(runOpts{wl: wl, sessions: n, seed: 7, seconds: 2, traced: true, setupReps: 1, warmup: 1500 * time.Millisecond})
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		ok := same && differ && res.correct()
		status := "ok"
		if !ok {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("validate %-12s %4d sessions: inputs deterministic %v, seed-sensitive %v; %d checked sessions, %d decisions, %d differ; %s\n",
			wl.name, n, same, differ, res.checkedSessions, res.checkedDecisions, res.mislabeled, status)
		for _, e := range res.errors {
			fmt.Println("  ERROR:", e)
		}
	}
	if failed {
		return fmt.Errorf("validation failed")
	}
	return nil
}

// checkCheckout refuses to run outside a repository checkout: the
// benchmark measures the program built from the sources beside it.
func checkCheckout() error {
	if _, err := os.Stat(filepath.Join("internal", "serve")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return nil
}

type runOpts struct {
	wl        workload
	sessions  int
	seed      uint64
	seconds   float64
	traced    bool
	setupReps int
	warmup    time.Duration
}

// mark is the process and hub state at a window boundary.
type mark struct {
	t          int64 // ns on the run clock
	cpuNs      int64
	maxRSSKB   int64 // the process's peak resident set so far
	allocs     uint64
	tickSum    float64 // hub tick histogram: sum (s) and count
	tickCount  uint64
	stageSum   [4]float64 // hub stage histograms: drain, window, infer, decide
	inferences uint64
	batches    uint64
}

var hubStages = [4]string{"drain", "window", "infer", "decide"}

func takeMark(clk clock, hub *serve.Hub) mark {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	m := mark{t: clk.now(), cpuNs: ru.Utime.Nano() + ru.Stime.Nano(), maxRSSKB: ru.Maxrss}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	m.allocs = sample[0].Value.Uint64()
	reg := obs.Default()
	tick := reg.Histogram("cogarm_serve_tick_seconds", "", obs.DurationBounds())
	m.tickSum, m.tickCount = tick.Sum(), tick.Count()
	for i, st := range hubStages {
		m.stageSum[i] = reg.Histogram("cogarm_serve_tick_stage_seconds", "", obs.DurationBounds(), obs.L("stage", st)).Sum()
	}
	snap := hub.Snapshot()
	m.inferences, m.batches = snap.Inferences, snap.Batches
	return m
}

func sleepUntil(clk clock, t int64) {
	if d := t - clk.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// journalRecord is what the journal goroutine measured.
type journalRecord struct {
	flushes, checkpoints []span
	flushBytes           []int64
	checkpointBytes      []int64
	err                  error
}

// runJournal flushes j every journalEvery, as cogarmd does, and takes a
// checkpoint at each time in checkpointAt, timing both.
func runJournal(j *serve.Journal, walDir, ckptDir string, clk clock, checkpointAt []int64, stop <-chan struct{}, out *journalRecord) {
	flush := time.NewTicker(journalEvery)
	defer flush.Stop()
	for {
		var ckpt <-chan time.Time
		if len(checkpointAt) > 0 {
			ckpt = time.After(time.Duration(checkpointAt[0] - clk.now()))
		}
		select {
		case <-stop:
			return
		case <-flush.C:
			before := dirBytes(walDir)
			t0 := clk.now()
			_, _, err := j.Flush()
			t1 := clk.now()
			if err != nil {
				out.err = fmt.Errorf("journal flush: %w", err)
				return
			}
			out.flushes = append(out.flushes, span{kind: spanFlush, shard: -1, tick: -1, start: t0, end: t1})
			out.flushBytes = append(out.flushBytes, dirBytes(walDir)-before)
		case <-ckpt:
			checkpointAt = checkpointAt[1:]
			t0 := clk.now()
			dir, err := j.Checkpoint(ckptDir)
			t1 := clk.now()
			if err != nil {
				out.err = fmt.Errorf("journal checkpoint: %w", err)
				return
			}
			out.checkpoints = append(out.checkpoints, span{kind: spanCheckpoint, shard: -1, tick: -1, start: t0, end: t1})
			out.checkpointBytes = append(out.checkpointBytes, dirBytes(dir))
		}
	}
}

// idleSource feeds a restored session nothing; the restore check only
// counts sessions.
type idleSource struct{}

func (idleSource) Read(int) []stream.Sample { return nil }

// run sets the workload up setupReps times, serves it through one timed
// window (alternately untraced and traced when o.traced), then checks
// labels and, with a journal, restores the fleet from its own WAL and
// checkpoint.
func run(o runOpts) (*result, error) {
	wl := o.wl
	in := makeInputs(wl, o.sessions, o.seed)
	checked := map[int]bool{}
	for _, i := range rand.New(rand.NewPCG(o.seed, 0xc4ec)).Perm(o.sessions)[:min(wl.checked, o.sessions)] {
		checked[i] = true
	}
	clk := clock{base: time.Now()}
	res := &result{wl: wl, traced: o.traced, digest: in.digest(), sessions: o.sessions}

	var f *fleet
	var rec *recorder
	for r := 0; r < o.setupReps; r++ {
		if f != nil {
			f.hub.Stop()
			f = nil
		}
		runtime.GC()
		rec = &recorder{clk: clk, in: in}
		t := time.Now()
		var err error
		if f, err = setupFleet(wl, in, rec, o.traced && !wl.journal, checked); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t).Seconds())
	}
	runtime.GC() // drop the earlier set-ups' garbage before timing
	hub := f.hub
	res.shards = len(rec.shards)

	// A traced run's window alternates untraced and traced segments, so the
	// tracing overhead is measured against interleaved baselines.
	winNs := int64(o.seconds * 1e9)
	segments := slices
	tracedTicks := 0
	if o.traced {
		segments = 2 * slices
		tracedTicks = int(winNs/tickNs)/2 + 2*segments
	}
	maxTicks := int((int64(startDelay+o.warmup)+winNs+int64(20*time.Second))/tickNs) + 1
	checkedPerShard := make([]int, len(rec.shards))
	for _, t := range f.taps {
		if t.check != nil {
			checkedPerShard[t.sh.idx]++
			t.check.seqs = make([]uint64, 0, maxTicks*maxSamplesPerTick)
			t.check.counts = make([]int, 0, maxTicks)
		}
	}
	rec.alloc(maxTicks, tracedTicks, checkedPerShard)
	runDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		hub.Stop()
		return nil, err
	}
	walDir, ckptDir := filepath.Join(runDir, "wal"), filepath.Join(runDir, "ckpt")

	// Everything started below is stopped by teardown, in this order, on
	// every path: the sender, the journal, the hub, then the probes, which
	// the hub's ticks signal.
	var snd *sender
	var journal *serve.Journal
	var jr journalRecord
	stopJournal, journalDone := make(chan struct{}), make(chan struct{})
	probesDone := make(chan struct{})
	hubStopped := false
	teardown := func() error {
		var errs []error
		if snd != nil {
			rep, err := snd.stop()
			errs = append(errs, err)
			res.senderLateMs = float64(rep.LateMaxNs) / 1e6
			snd = nil
		}
		if journal != nil {
			close(stopJournal)
			<-journalDone
			errs = append(errs, jr.err, journal.Close())
			journal = nil
		}
		if !hubStopped {
			hub.Stop()
			hubStopped = true
			for _, sh := range rec.shards {
				close(sh.probe)
			}
			for range rec.shards {
				<-probesDone
			}
		}
		return errors.Join(errs...)
	}
	defer os.RemoveAll(runDir)
	defer teardown()

	for _, sh := range rec.shards {
		go func() {
			sh.runProbe(hub, clk)
			probesDone <- struct{}{}
		}()
	}
	rec.streamStart = clk.now() + int64(startDelay)
	hub.Start()
	if wl.udp {
		addrs := make([]string, len(f.inlets))
		for i, inlet := range f.inlets {
			addrs[i] = inlet.Addr()
		}
		if snd, err = startSender(senderConfig{Workload: wl.name, Seed: o.seed, Addrs: addrs,
			BaseUnixNs: clk.base.UnixNano(), StreamStart: rec.streamStart,
			MeasureFrom: rec.streamStart + int64(o.warmup)}); err != nil {
			return nil, err
		}
	}
	if wl.journal {
		j, _, err := serve.NewJournal(hub, wal.Options{Dir: walDir})
		if err != nil {
			return nil, err
		}
		journal = j
		// One checkpoint, in the middle of the segment holding the window's
		// midpoint.
		at := []int64{rec.streamStart + int64(o.warmup) + (int64(segments/2)*2+1)*winNs/int64(2*segments)}
		go func() {
			runJournal(j, walDir, ckptDir, clk, at, stopJournal, &jr)
			close(journalDone)
		}()
	}

	sleepUntil(clk, rec.streamStart+int64(o.warmup))
	marks := []mark{takeMark(clk, hub)}
	for i := 1; i <= segments; i++ {
		sleepUntil(clk, marks[0].t+winNs*int64(i)/int64(segments))
		// Flip before the mark: a tick starting after the mark sees the
		// next segment's tracing state from its first drain.
		rec.tracing.Store(o.traced && i%2 == 1)
		marks = append(marks, takeMark(clk, hub))
	}

	// Let the window's last ticks finish and one more start (window reads a
	// tick's decisions up to the next tick's first), then stop feeding and
	// read the checked sessions' counters: Hub.Session waits for any tick in
	// flight, so the counts cover every drain.
	time.Sleep(time.Duration(2 * tickNs))
	rec.frozen.Store(true)
	got := map[*tap]serve.SessionStats{}
	for _, t := range f.taps {
		if t.check != nil {
			st, ok := hub.Session(t.check.id)
			if !ok {
				return nil, fmt.Errorf("checked session %d vanished", t.check.id)
			}
			got[t] = st
		}
	}
	for _, inlet := range f.inlets {
		res.lost += inlet.DroppedFrames() + inlet.Ring.Dropped()
	}
	for _, t := range f.taps {
		res.lost += t.gaps
		res.consumed += t.consumed
	}
	if err := teardown(); err != nil {
		return nil, err
	}
	for _, sh := range rec.shards {
		if sh.overflow {
			return nil, fmt.Errorf("shard %d outgrew its preallocated record", sh.idx)
		}
		res.probeMissed += sh.probeMissed.Load()
	}

	if wl.journal {
		t0 := time.Now()
		restored, _, _, err := serve.RestoreHubWal(ckptDir, walDir, func(serve.RestoredSession) (serve.Source, error) {
			return idleSource{}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		res.restoreMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		res.restored = restored.Sessions()
		restored.Stop()
		if res.restored != o.sessions {
			res.errors = append(res.errors, fmt.Sprintf("restore brought back %d of %d sessions", res.restored, o.sessions))
		}
		res.journal = jr
	}

	// Reference labels for the checked sessions.
	for t, st := range got {
		ref, err := f.referenceCounts(in, t)
		if err != nil {
			return nil, err
		}
		res.checkedSessions++
		var over, under uint64
		for a := range ref {
			g := st.Actions[eeg.Action(a)]
			if g > ref[a] {
				over += g - ref[a]
			} else {
				under += ref[a] - g
			}
			res.checkedDecisions += ref[a]
		}
		res.mislabeled += max(over, under)
	}

	res.a = rec.window(marks, o.seconds)
	if o.traced {
		res.layers = rec.layers(res.a, wl)
		res.spans = rec.collectSpans(jr)
	}
	return res, nil
}

// window gathers the decisions of the ticks inside one timed window,
// whose marks bound its slices. Each shard's window starts half a tick
// period before its first tick after the first mark and spans the window
// length, so it holds seconds×TickHz tick slots whatever the shard's phase;
// a slot without a tick is that shard's sessions' decisions missing. A tick
// belongs to the slice its first drain falls in.
func (r *recorder) window(marks []mark, seconds float64) windowStats {
	ws := windowStats{seconds: seconds, slices: make([]sliceStats, len(marks)-1)}
	for i := range ws.slices {
		ws.slices[i].from, ws.slices[i].to = marks[i], marks[i+1]
	}
	slots := int(seconds*tickHz + 0.5)
	for _, sh := range r.shards {
		ws.expected += slots * sh.nSess
		first := sort.Search(sh.tick+1, func(t int) bool { return sh.tickStart[t] >= marks[0].t })
		if first > sh.tick {
			continue
		}
		hi := sh.tickStart[first] - tickNs/2 + int64(seconds*1e9)
		for t := first; t < sh.tick && sh.tickStart[t] < hi; t++ {
			commit := sh.commit[t]
			if commit == 0 { // probe skipped: the next tick's start bounds the commit
				commit = sh.tickStart[t+1]
			}
			decs := sh.decDue[sh.decStart[t]:sh.decStart[t+1]]
			i := sort.Search(len(ws.slices), func(i int) bool { return ws.slices[i].to.t > sh.tickStart[t] })
			sl := &ws.slices[min(i, len(ws.slices)-1)]
			for _, due := range decs {
				ms := float64(commit-due) / 1e6
				ws.latMs = append(ws.latMs, ms)
				sl.latMs = append(sl.latMs, ms)
				if ms > budgetMs {
					ws.late++
				}
			}
			ws.made += len(decs)
			sl.made += len(decs)
			sl.ticks = append(sl.ticks, tickRef{sh: sh, t: t, start: sh.tickStart[t], commit: commit, decisions: len(decs)})
		}
	}
	sort.Float64s(ws.latMs)
	for i := range ws.slices {
		sort.Float64s(ws.slices[i].latMs)
	}
	return ws
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
