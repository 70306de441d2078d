package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one reported metric. bound applies to end-to-end metrics:
// the share of the parent's median by which it may worsen.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the hub sees, printed by --trace 0.
// Shares are reported as the good share (on time, correct, kept) so that
// none of them reads zero on a healthy run. Peak RSS is read at the end of
// the timed window, so it covers set-up and serving but not the restore
// check that follows.
var endToEnd = []metricDef{
	{"decision_latency_p50_ms", "ms", "lower", 0.25},
	{"decision_latency_p99_ms", "ms", "lower", 0.25},
	{"on_time_decision_pct", "%", "higher", 0.05},
	{"cpu_us_per_decision", "us", "lower", 0.25},
	{"correct_decision_pct", "%", "higher", 0.02},
	{"samples_kept_pct", "%", "higher", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the per-layer metrics of the traced run, printed by
// --trace 1, grouped by the repository module they measure.
var perLayer = []metricDef{
	{name: "stream.transit_ms_p50", unit: "ms", better: "lower"},
	{name: "stream.transit_ms_p99", unit: "ms", better: "lower"},
	{name: "stream.backlog_samples_p99", unit: "count", better: "lower"},
	{name: "stream.samples_lost", unit: "count", better: "lower"},
	{name: "serve.tick_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.tick_ms_p99", unit: "ms", better: "lower"},
	{name: "serve.drain_us_per_decision", unit: "us", better: "lower"},
	{name: "serve.allocs_per_decision", unit: "count", better: "lower"},
	{name: "serve.batch_mean", unit: "count", better: "higher"},
	{name: "control.window_us_per_decision", unit: "us", better: "lower"},
	{name: "models.infer_us_per_decision", unit: "us", better: "lower"},
	{name: "wal.flush_ms_p50", unit: "ms", better: "lower"},
	{name: "wal.flush_ms_max", unit: "ms", better: "lower"},
	{name: "wal.bytes_per_tick", unit: "B", better: "lower"},
	{name: "checkpoint.ms", unit: "ms", better: "lower"},
	{name: "checkpoint.bytes", unit: "B", better: "lower"},
	{name: "checkpoint.restore_ms", unit: "ms", better: "lower"},
	{name: "gen.share_pct", unit: "%", better: "lower"},
	{name: "gen.late_ms_max", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "e2e.latency_samples", unit: "count", better: "higher"},
}

// tickRef is one shard tick inside a timed window.
type tickRef struct {
	sh            *shardRec
	t             int
	start, commit int64
	decisions     int
}

// windowStats is one timed window's decisions.
type windowStats struct {
	seconds        float64
	expected, made int
	late           int
	latMs          []float64 // sorted
	slices         []sliceStats
}

// sliceStats is one slice of a timed window.
type sliceStats struct {
	from, to mark
	made     int
	latMs    []float64 // sorted
	ticks    []tickRef
}

func (s sliceStats) cpuUsPerDecision() float64 {
	return float64(s.to.cpuNs-s.from.cpuNs) / 1e3 / float64(max(s.made, 1))
}

func (w windowStats) missing() int { return max(0, w.expected-w.made) }

// traced reports whether slice i of a traced window was traced: they
// alternate, starting untraced.
func traced(i int) bool { return i%2 == 1 }

func all(int) bool { return true }

func untraced(i int) bool { return !traced(i) }

// latencyMs is the median over the window's slices of their q-quantile
// decision latency.
func (w windowStats) latencyMs(q float64) float64 {
	vals := make([]float64, len(w.slices))
	for i, s := range w.slices {
		vals[i] = quantile(s.latMs, q)
	}
	return median(vals)
}

// cpuUsPerDecision is the process CPU over the slices keep selects divided
// by their decisions. It is a total, not a median over slices: journal
// flushes and GC cycles land in some slices and not others.
func (w windowStats) cpuUsPerDecision(keep func(int) bool) float64 {
	var cpuNs int64
	made := 0
	for i, s := range w.slices {
		if keep(i) {
			cpuNs += s.to.cpuNs - s.from.cpuNs
			made += s.made
		}
	}
	return float64(cpuNs) / 1e3 / float64(max(made, 1))
}

// sumOver sums the mark difference f(to)-f(from) over the slices keep
// selects.
func (w windowStats) sumOver(keep func(int) bool, f func(mark) float64) float64 {
	var sum float64
	for i, s := range w.slices {
		if keep(i) {
			sum += f(s.to) - f(s.from)
		}
	}
	return sum
}

// layerStats is the per-layer breakdown of the traced slices, summed over
// their ticks (ns).
type layerStats struct {
	tick, drain, gen, infer, self int64
	decisions                     int
	tickMs                        []float64 // sorted
	backlog                       []float64 // sorted
	transit                       []float64 // sorted
	replay                        bool      // the drain is benchmark code too
	inferTimed                    bool      // a decorator timed inference
}

// layers splits every tick of the traced slices into its spans: drain and
// gen per session, infer per batch, and the tick's self time (filter,
// normalise, window, debounce and commit). Ticks still running when their
// slice ended were traced only in part and are left out.
func (r *recorder) layers(w windowStats, wl workload) layerStats {
	ls := layerStats{replay: !wl.udp, inferTimed: !wl.journal}
	type sums struct{ drain, gen, infer int64 }
	for _, sh := range r.shards {
		per := make([]sums, sh.tick+1)
		for _, s := range sh.spans {
			if s.tick < 0 || int(s.tick) >= len(per) {
				continue
			}
			d := s.end - s.start
			switch s.kind {
			case spanDrain:
				per[s.tick].drain += d
			case spanGen:
				per[s.tick].gen += d
			case spanInfer:
				per[s.tick].infer += d
			}
		}
		for i, sl := range w.slices {
			if !traced(i) {
				continue
			}
			for _, tr := range sl.ticks {
				if tr.sh != sh || tr.commit > sl.to.t {
					continue
				}
				p := per[tr.t]
				dur := tr.commit - tr.start
				ls.tick += dur
				ls.drain += p.drain
				ls.gen += p.gen
				ls.infer += p.infer
				ls.self += dur - p.drain - p.gen - p.infer
				ls.decisions += tr.decisions
				ls.tickMs = append(ls.tickMs, float64(dur)/1e6)
			}
		}
		for _, b := range sh.backlog {
			ls.backlog = append(ls.backlog, float64(b))
		}
		ls.transit = append(ls.transit, sh.transit...)
	}
	sort.Float64s(ls.tickMs)
	sort.Float64s(ls.backlog)
	sort.Float64s(ls.transit)
	return ls
}

// genShare is the benchmark's own time inside ticks, as % of tick time.
func (ls layerStats) genShare() float64 {
	g := ls.gen
	if ls.replay {
		g += ls.drain
	}
	return 100 * float64(g) / float64(max(ls.tick, 1))
}

// collectSpans gathers every recorded span, with tick spans rebuilt from
// the tick starts and probe commits.
func (r *recorder) collectSpans(jr journalRecord) []span {
	var out []span
	for _, sh := range r.shards {
		for t := 0; t < sh.tick && t < len(sh.tickStart); t++ {
			if sh.commit[t] != 0 {
				out = append(out, span{kind: spanTick, shard: int16(sh.idx), tick: int32(t), start: sh.tickStart[t], end: sh.commit[t]})
			}
		}
		out = append(out, sh.spans...)
	}
	out = append(out, jr.flushes...)
	return append(out, jr.checkpoints...)
}

// result is one run's outcome.
type result struct {
	wl       workload
	traced   bool
	digest   string
	sessions int
	shards   int

	setupS []float64
	a      windowStats
	layers layerStats
	spans  []span

	journal      journalRecord
	restoreMs    float64
	restored     int
	senderLateMs float64

	lost, consumed   uint64
	probeMissed      int64
	checkedSessions  int
	checkedDecisions uint64
	mislabeled       uint64
	errors           []string
}

func (r *result) correct() bool {
	return len(r.errors) == 0 && r.mislabeled == 0 && r.checkedSessions > 0 && r.checkedDecisions > 0
}

// failed counts decisions missing from the timed window plus labels of
// checked sessions that differ from the reference.
func (r *result) failed() int { return r.a.missing() + int(r.mislabeled) }

func (r *result) endToEnd() map[string]float64 {
	a := r.a
	exp := float64(max(a.expected, 1))
	return map[string]float64{
		"decision_latency_p50_ms": a.latencyMs(0.50),
		"decision_latency_p99_ms": a.latencyMs(0.99),
		"on_time_decision_pct":    100 * float64(a.expected-a.late-a.missing()) / exp,
		"cpu_us_per_decision":     a.cpuUsPerDecision(all),
		"correct_decision_pct":    100 * (exp - float64(r.failed())) / exp,
		"samples_kept_pct":        100 * float64(r.consumed) / float64(max(r.consumed+r.lost, 1)),
		"peak_rss_mb":             float64(a.slices[len(a.slices)-1].to.maxRSSKB) / 1024,
		"setup_s":                 median(r.setupS),
	}
}

func (r *result) perLayer() map[string]float64 {
	ls, jr := r.layers, r.journal
	dec := float64(max(ls.decisions, 1))
	allocs := r.a.sumOver(untraced, func(m mark) float64 { return float64(m.allocs) })
	m := map[string]float64{
		"stream.transit_ms_p50":          quantile(ls.transit, 0.50),
		"stream.transit_ms_p99":          quantile(ls.transit, 0.99),
		"stream.backlog_samples_p99":     quantile(ls.backlog, 0.99),
		"stream.samples_lost":            float64(r.lost),
		"serve.tick_ms_p50":              quantile(ls.tickMs, 0.50),
		"serve.tick_ms_p99":              quantile(ls.tickMs, 0.99),
		"serve.drain_us_per_decision":    float64(ls.drain) / 1e3 / dec,
		"serve.allocs_per_decision":      allocs / r.a.sumOver(untraced, func(m mark) float64 { return float64(m.inferences) }),
		"serve.batch_mean":               r.a.sumOver(traced, func(m mark) float64 { return float64(m.inferences) }) / r.a.sumOver(traced, func(m mark) float64 { return float64(m.batches) }),
		"control.window_us_per_decision": float64(ls.self) / 1e3 / dec,
		"models.infer_us_per_decision":   float64(ls.infer) / 1e3 / dec,
		"wal.flush_ms_p50":               0,
		"wal.flush_ms_max":               0,
		"wal.bytes_per_tick":             0,
		"checkpoint.ms":                  0,
		"checkpoint.bytes":               0,
		"checkpoint.restore_ms":          r.restoreMs,
		"gen.share_pct":                  ls.genShare(),
		"gen.late_ms_max":                r.senderLateMs,
		"trace.overhead_pct":             100 * (r.a.cpuUsPerDecision(traced) - r.a.cpuUsPerDecision(untraced)) / r.a.cpuUsPerDecision(untraced),
		"e2e.latency_samples":            float64(len(r.a.latMs)),
	}
	if len(jr.flushes) > 0 {
		// Flushes inside the timed window; the first (the full base) runs
		// during warm-up.
		from, to := r.a.slices[0].from.t, r.a.slices[len(r.a.slices)-1].to.t
		var ms []float64
		var bytes int64
		for i, s := range jr.flushes {
			if s.start >= from && s.start < to {
				ms = append(ms, float64(s.end-s.start)/1e6)
				bytes += jr.flushBytes[i]
			}
		}
		sort.Float64s(ms)
		m["wal.flush_ms_p50"] = quantile(ms, 0.5)
		if len(ms) > 0 {
			m["wal.flush_ms_max"] = ms[len(ms)-1]
		}
		m["wal.bytes_per_tick"] = float64(bytes) / (r.a.seconds * tickHz)
	}
	if n := len(jr.checkpoints); n > 0 {
		var ms, bytes float64
		for i, s := range jr.checkpoints {
			ms += float64(s.end-s.start) / 1e6
			bytes += float64(jr.checkpointBytes[i])
		}
		m["checkpoint.ms"] = ms / float64(n)
		m["checkpoint.bytes"] = bytes / float64(n)
	}
	return m
}

// checks returns the benchmark's own validity failures for a traced run:
// the load generator's share of tick time, and whether the span-derived
// tick agrees with the hub's own tick clock.
func (r *result) checks() []string {
	var errs []string
	if g := r.layers.genShare(); g >= genShareMax {
		errs = append(errs, fmt.Sprintf("gen.share_pct %.2f%% >= %.0f%%: the load generator distorts the ticks", g, genShareMax))
	}
	if d := r.tickAgreement(); d > tickAgreeMax || d < -tickAgreeMax {
		errs = append(errs, fmt.Sprintf("layer columns sum to %+.1f%% of the hub's own tick clock (limit ±%.0f%%)", d, tickAgreeMax))
	}
	return errs
}

// hubTickMean is the mean tick (ns) by the hub's own clock over the
// traced slices.
func (r *result) hubTickMean() float64 {
	sum := r.a.sumOver(traced, func(m mark) float64 { return m.tickSum })
	return 1e9 * sum / r.a.sumOver(traced, func(m mark) float64 { return float64(m.tickCount) })
}

// tickAgreement is how far the mean span-derived tick (the sum of the
// layer columns) lies from the hub's own mean tick, in %.
func (r *result) tickAgreement() float64 {
	ls := r.layers
	spanMean := float64(ls.tick) / float64(max(len(ls.tickMs), 1))
	return 100 * (spanMean - r.hubTickMean()) / r.hubTickMean()
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d sessions on %d shards; inputs sha256 %s\n", r.wl.name, r.sessions, r.shards, r.digest)
	fmt.Fprintf(w, "set-up: %s s (median of %d)\n", joinFloats(r.setupS, "%.3f"), len(r.setupS))
	a := r.a
	fmt.Fprintf(w, "%.0f s window: %d decisions expected, %d made, %d later than %.1f ms; %.2f us CPU per decision\n",
		a.seconds, a.expected, a.made, a.late, budgetMs, a.cpuUsPerDecision(all))
	fmt.Fprintf(w, "decision latency (median of %d slices): p50 %.3f ms, p99 %.3f ms over %d decisions; whole window p50 %.3f ms, p99 %.3f ms\n",
		len(a.slices), a.latencyMs(0.5), a.latencyMs(0.99), len(a.latMs), quantile(a.latMs, 0.5), quantile(a.latMs, 0.99))
	var cpu, p99 []float64
	for _, s := range a.slices {
		cpu, p99 = append(cpu, s.cpuUsPerDecision()), append(p99, quantile(s.latMs, 0.99))
	}
	fmt.Fprintf(w, "slices: us CPU per decision %s; p99 ms %s\n", joinFloats(cpu, "%.2f"), joinFloats(p99, "%.1f"))
	fmt.Fprintf(w, "labels: %d checked sessions, %d reference decisions, %d differ; samples kept %d, lost %d; probe skips %d\n",
		r.checkedSessions, r.checkedDecisions, r.mislabeled, r.consumed, r.lost, r.probeMissed)
	if r.wl.journal {
		fmt.Fprintf(w, "journal: %d flushes, %d checkpoints; restore brought back %d sessions in %.1f ms\n",
			len(r.journal.flushes), len(r.journal.checkpoints), r.restored, r.restoreMs)
	}
	if r.traced {
		r.printLayers(w)
	}
	for _, e := range r.errors {
		fmt.Fprintln(w, "ERROR:", e)
	}
}

// printLayers prints the traced slices' self-time table: each layer's
// time per decision from the benchmark's spans, beside the hub's own stage
// clocks (whose drain includes the benchmark's tap).
func (r *result) printLayers(w io.Writer) {
	ls, a := r.layers, r.a
	dec := float64(max(ls.decisions, 1))
	hubDec := a.sumOver(traced, func(m mark) float64 { return float64(m.inferences) })
	us := func(ns int64) float64 { return float64(ns) / 1e3 / dec }
	hub := func(i int) float64 {
		return 1e6 * a.sumOver(traced, func(m mark) float64 { return m.stageSum[i] }) / hubDec
	}
	pct := func(ns int64) float64 { return 100 * float64(ns) / float64(max(ls.tick, 1)) }
	fmt.Fprintf(w, "traced half of the window: %d ticks, %d decisions; us per decision (%% of tick)\n", len(ls.tickMs), ls.decisions)
	fmt.Fprintf(w, "  %-34s %10s %8s %14s\n", "layer", "spans", "share", "hub's clock")
	fmt.Fprintf(w, "  %-34s %10.3f %7.2f%% %14s\n", "gen (benchmark tap)", us(ls.gen), pct(ls.gen), "")
	fmt.Fprintf(w, "  %-34s %10.3f %7.2f%% %14.3f\n", "drain (source read; hub incl. tap)", us(ls.drain), pct(ls.drain), hub(0))
	fmt.Fprintf(w, "  %-34s %10.3f %7.2f%% %14.3f\n", "window (tick self time)", us(ls.self), pct(ls.self), hub(1)+hub(3))
	inferName := "infer"
	if !ls.inferTimed {
		inferName = "infer (not split: in window)"
	}
	fmt.Fprintf(w, "  %-34s %10.3f %7.2f%% %14.3f\n", inferName, us(ls.infer), pct(ls.infer), hub(2))
	fmt.Fprintf(w, "  %-34s %10.3f %7.2f%%\n", "sum of columns = tick", us(ls.tick), 100.0)
	fmt.Fprintf(w, "  mean tick: spans %.3f ms, hub %.3f ms (%+.2f%%); gen share %.2f%%; trace overhead %+.2f%% CPU\n",
		float64(ls.tick)/1e6/float64(max(len(ls.tickMs), 1)), r.hubTickMean()/1e6, r.tickAgreement(), ls.genShare(),
		r.perLayer()["trace.overhead_pct"])
}

// metricsJSON renders defs from values in the result line's format.
func metricsJSON(defs []metricDef, values map[string]float64) map[string]any {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		out[d.name] = map[string]any{"value": values[d.name], "unit": d.unit}
	}
	return out
}

func (r *result) metrics() map[string]any {
	if r.traced {
		return metricsJSON(perLayer, r.perLayer())
	}
	return metricsJSON(endToEnd, r.endToEnd())
}

// emit prints the result line, the last line of standard output.
func (r *result) emit(w io.Writer) error {
	return json.NewEncoder(w).Encode(map[string]any{
		"correct":   r.correct(),
		"attempted": r.a.expected,
		"failed":    r.failed(),
		"metrics":   r.metrics(),
	})
}

// writeSpans writes the traced spans as CSV (name, shard, tick, parent,
// start_ns, end_ns); a drain, gen or infer span's parent is its tick.
func (r *result) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name,shard,tick,parent,start_ns,end_ns")
	for _, s := range r.spans {
		parent := ""
		if s.kind == spanDrain || s.kind == spanGen || s.kind == spanInfer {
			parent = fmt.Sprintf("tick/%d/%d", s.shard, s.tick)
		}
		fmt.Fprintf(bw, "%s,%d,%d,%s,%d,%d\n", spanNames[s.kind], s.shard, s.tick, parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fingerprint identifies the host and the source a result came from.
type fingerprint struct {
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit,omitempty"`
	SourceSHA256 string `json:"source_sha256"`
}

// host is the part of the fingerprint two compared results must share.
func (f fingerprint) host() string {
	return fmt.Sprintf("%s / nproc %d / GOMAXPROCS %d / %s", f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion)
}

func (f fingerprint) source() string {
	if f.Commit != "" {
		return "commit " + f.Commit
	}
	return "sha256 " + f.SourceSHA256[:16]
}

func takeFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(), SourceSHA256: sourceDigest()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// gitCommit reads HEAD's commit from .git without running git; a checkout
// that is not a repository has none.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return ""
}

// sourceDigest hashes every Go source and go.mod file of the checkout, so
// a result names the program it measured even outside a git repository.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// savedResult is a run's result file under .bench_build/results/.
type savedResult struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     int                `json:"seconds"`
	InputSHA256 string             `json:"input_sha256"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
}

func (r *result) save(fp fingerprint, seed uint64, seconds int) error {
	vals := r.endToEnd()
	if r.traced {
		vals = r.perLayer()
		name := r.wl.name + ".csv" // the latest traced run of each workload
		if err := r.writeSpans(filepath.Join(".bench_build", "trace", name)); err != nil {
			return err
		}
	}
	doc := savedResult{Fingerprint: fp, Workload: r.wl.name, Seed: seed, Trace: r.traced, Seconds: seconds,
		InputSHA256: r.digest, Correct: r.correct(), Attempted: r.a.expected, Failed: r.failed(), Metrics: vals}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if r.traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d.json", r.wl.name, seed, t)), append(b, '\n'), 0o644)
}

// compareResults prints, per workload and metric, the median and quartiles
// of two sets of saved results. It refuses sets measured on different hosts.
func compareResults(oldDir, newDir string) error {
	load := func(dir string) ([]savedResult, error) {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(paths) == 0 {
			return nil, fmt.Errorf("no results in %s", dir)
		}
		var out []savedResult
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r savedResult
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	olds, err := load(oldDir)
	if err != nil {
		return err
	}
	news, err := load(newDir)
	if err != nil {
		return err
	}
	host := olds[0].Fingerprint.host()
	for _, r := range append(olds, news...) {
		if h := r.Fingerprint.host(); h != host {
			return fmt.Errorf("refusing to compare results from different hosts:\n  %s\n  %s", host, h)
		}
	}
	fmt.Printf("host: %s\nold: %s\nnew: %s\n", host, olds[0].Fingerprint.source(), news[0].Fingerprint.source())
	group := func(rs []savedResult) map[string][]float64 {
		m := map[string][]float64{}
		for _, r := range rs {
			for k, v := range r.Metrics {
				key := fmt.Sprintf("%s trace=%v %s", r.Workload, r.Trace, k)
				m[key] = append(m[key], v)
			}
		}
		return m
	}
	og, ng := group(olds), group(news)
	keys := make([]string, 0, len(og))
	for k := range og {
		if _, ok := ng[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Printf("%-60s %12s %12s %8s %8s %8s\n", "workload / metric", "old median", "new median", "change", "old IQR", "new IQR")
	for _, k := range keys {
		o, n := og[k], ng[k]
		om, nm := median(o), median(n)
		change := "-"
		if om != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nm-om)/om)
		}
		fmt.Printf("%-60s %12.4g %12.4g %8s %7.1f%% %7.1f%%\n", k, om, nm, change, 100*iqrShare(o), 100*iqrShare(n))
	}
	return nil
}

// writeManifest prints BENCHMARK.json from the workload and metric tables.
func writeManifest(w io.Writer) error {
	type wlDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eDoc struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerDoc struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []wlDoc    `json:"workloads"`
		EndToEnd   []e2eDoc   `json:"end_to_end"`
		PerLayer   []layerDoc `json:"per_layer"`
	}{Command: []string{"bash", "perfbench/run.sh"}, Paths: []string{"perfbench"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, wlDoc{wl.name, wl.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eDoc{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDoc{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runSeconds is the timed window length the manifest asks for.
const runSeconds = 20

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// iqrShare is the interquartile range of xs as a share of its median.
func iqrShare(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
