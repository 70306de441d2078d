package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"cognitivearm/internal/board"
	"cognitivearm/internal/core"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/wal"
)

// The -serve mode: a fixed serving micro-benchmark whose numbers land in
// BENCH_serve.json, so the fleet path's perf trajectory (µs/inference,
// allocs/op, checkpoint latency at 100 sessions) is tracked across PRs by a
// machine-readable artefact instead of buried bench logs.
//
// Telemetry-on and telemetry-off fleets are measured in interleaved repeats
// (alternating order, median of serveBenchRepeats chunks each) so slow drift
// — CPU frequency scaling, cache warmth, background load — cancels instead
// of landing entirely on whichever pass ran second; sequential passes once
// produced a nonsensical negative "telemetry overhead".

// serveBenchReport is the schema of BENCH_serve.json. us_per_inference and
// allocs_per_tick are the benchgate contract (scripts/benchgate.go) and keep
// their meaning: telemetry on, serial kernels.
type serveBenchReport struct {
	Sessions   int                        `json:"sessions"`
	Shards     int                        `json:"shards"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	Models     map[string]serveModelBench `json:"models"`
	Ckpt       serveCkptBench             `json:"checkpoint"`
	Wal        serveWalBench              `json:"wal"`
}

type serveModelBench struct {
	// UsPerInference is measured with telemetry enabled — the production
	// shape; UsPerInferenceBare disables it (serve.Config.DisableTelemetry)
	// so the delta is the measured cost of the instrumentation itself. Both
	// are medians of interleaved repeats on the serial kernel path.
	UsPerInference       float64 `json:"us_per_inference"`
	UsPerInferenceBare   float64 `json:"us_per_inference_bare"`
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`
	// UsPerInferenceSerial repeats us_per_inference under its explicit name;
	// UsPerInferenceParallel is the same fleet with the kernel pool at
	// KernelThreads workers; UsPerInferenceQuantized serves the int8/int16
	// twin (0 when the model has no quantized form or the gate rejected it).
	UsPerInferenceSerial    float64 `json:"us_per_inference_serial"`
	UsPerInferenceParallel  float64 `json:"us_per_inference_parallel"`
	UsPerInferenceQuantized float64 `json:"us_per_inference_quantized"`
	KernelThreads           int     `json:"kernel_threads"`
	AllocsPerTick           float64 `json:"allocs_per_tick"`
	MeanBatch               float64 `json:"mean_batch"`
}

type serveCkptBench struct {
	FullMs    float64 `json:"full_ms"`
	FullBytes int64   `json:"full_bytes"`
}

// serveWalBench is the journal column: the amortized per-tick cost of
// capturing, framing, Merkle-sealing, and appending the fleet's mutations
// to the WAL (NoSync — the fsync at the seal is a disk property, not a
// code one), measured on the trained rf fleet at the production cadence of
// one flush per serveBenchChunk ticks (~2 s at 15 Hz).
type serveWalBench struct {
	AppendUsPerTick float64 `json:"append_us_per_tick"`
	BytesPerTick    float64 `json:"bytes_per_tick"`
}

const (
	serveBenchSessions = 100
	serveBenchShards   = 4
	serveBenchWarmup   = 25
	serveBenchRepeats  = 5
	serveBenchChunk    = 30 // ticks per measured chunk
)

// runServeBench builds a 100-session fleet per decoder family, measures the
// steady-state tick loop on the serial, parallel, and quantized paths, times
// a checkpoint, and writes the report to outPath.
func runServeBench(outPath string) {
	cfg := core.DefaultConfig()
	cfg.SubjectIDs = []int{0}
	cfg.SessionSeconds = 24
	pipe, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	reg := serve.NewRegistry()
	rfSpec := models.Spec{Family: models.FamilyRF, WindowSize: cfg.WindowSize, Trees: 50, MaxDepth: 12}
	if _, _, err := reg.GetOrBuild("rf", func() (models.Classifier, int64, error) {
		clf, _, err := pipe.TrainModel(rfSpec)
		return clf, models.OpsPerInference(rfSpec), err
	}); err != nil {
		log.Fatal(err)
	}
	// Untrained CNN weights serve at identical cost to trained ones.
	cnnSpec := models.Spec{Family: models.FamilyCNN, WindowSize: cfg.WindowSize,
		Optimizer: "adam", LR: 1e-3, Dropout: 0.2, ConvLayers: 1, Filters: 32, Kernel: 5, Stride: 2, Pool: "none"}
	if _, _, err := reg.GetOrBuild("cnn", func() (models.Classifier, int64, error) {
		net, err := models.BuildNet(cnnSpec, 1)
		if err != nil {
			return nil, 0, err
		}
		return &models.NNClassifier{Net: net, Spec: cnnSpec}, models.OpsPerInference(cnnSpec), nil
	}); err != nil {
		log.Fatal(err)
	}

	// A second registry serves the same trained models through their
	// quantized twins (gate at 0.7 on synthetic calibration: the benchmark
	// measures kernel cost, not decoder accuracy).
	qreg := serve.NewRegistry()
	qreg.EnableQuantization(serve.QuantPolicy{MinAgreement: 0.7})
	for _, key := range []string{"rf", "cnn"} {
		clf, macs, ok := reg.Get(key)
		if !ok {
			log.Fatalf("model %q missing", key)
		}
		if _, _, err := qreg.GetOrBuild(key, func() (models.Classifier, int64, error) {
			return clf, macs, nil
		}); err != nil {
			log.Printf("benchtables: %s quantization rejected, quantized column will be 0: %v", key, err)
		}
	}

	parallelThreads := runtime.GOMAXPROCS(0)
	if parallelThreads > serve.MaxAutoKernelThreads {
		parallelThreads = serve.MaxAutoKernelThreads
	}

	report := serveBenchReport{
		Sessions:   serveBenchSessions,
		Shards:     serveBenchShards,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Models:     map[string]serveModelBench{},
	}
	for _, key := range []string{"rf", "cnn"} {
		hubBare, _ := buildServeBenchHub(reg, pipe, key, true, 1)
		hubOn, _ := buildServeBenchHub(reg, pipe, key, false, 1)
		usOn, usBare, allocs, meanBatch := measureInterleaved(hubOn, hubBare)
		hubBare.Stop()

		mb := serveModelBench{
			UsPerInference:       usOn,
			UsPerInferenceBare:   usBare,
			UsPerInferenceSerial: usOn,
			KernelThreads:        parallelThreads,
			AllocsPerTick:        allocs,
			MeanBatch:            meanBatch,
		}
		if usBare > 0 {
			mb.TelemetryOverheadPct = 100 * (usOn - usBare) / usBare
		}

		// Parallel pass: same fleet shape with the kernel pool attached.
		hubPar, _ := buildServeBenchHub(reg, pipe, key, false, parallelThreads)
		mb.UsPerInferenceParallel = measureMedian(hubPar)
		hubPar.Stop()

		// Quantized pass: int8 GEMM (cnn) / int16 forest (rf), serial kernels
		// so the column isolates quantization from threading.
		if _, _, ok := qreg.Get(key); ok {
			hubQ, _ := buildServeBenchHub(qreg, pipe, key, false, 1)
			mb.UsPerInferenceQuantized = measureMedian(hubQ)
			hubQ.Stop()
		}
		report.Models[key] = mb

		if key == "rf" { // checkpoint timing once, on the trained-model fleet
			root, err := os.MkdirTemp("", "benchckpt")
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			fullDir, err := hubOn.Checkpoint(root)
			if err != nil {
				log.Fatal(err)
			}
			report.Ckpt.FullMs = float64(time.Since(start).Microseconds()) / 1e3
			report.Ckpt.FullBytes = dirBytes(fullDir)
			os.RemoveAll(root)
		}
		hubOn.Stop()
	}

	report.Wal = measureWalAppend(reg, pipe)

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== Serving benchmark (%d sessions, %d shards, GOMAXPROCS %d) ==\n",
		serveBenchSessions, serveBenchShards, report.GoMaxProcs)
	for _, key := range []string{"rf", "cnn"} {
		mb := report.Models[key]
		fmt.Printf("%-4s %8.1f µs/inference serial (telemetry %+.1f%% vs %.1f bare)  parallel×%d %8.1f  quantized %8.1f  %5.1f allocs/tick  mean batch %.1f\n",
			key, mb.UsPerInferenceSerial, mb.TelemetryOverheadPct, mb.UsPerInferenceBare,
			mb.KernelThreads, mb.UsPerInferenceParallel, mb.UsPerInferenceQuantized,
			mb.AllocsPerTick, mb.MeanBatch)
	}
	fmt.Printf("checkpoint: %.1f ms / %d B\n", report.Ckpt.FullMs, report.Ckpt.FullBytes)
	fmt.Printf("wal append: %.1f µs/tick, %.0f B/tick (flush per %d ticks, NoSync)\n",
		report.Wal.AppendUsPerTick, report.Wal.BytesPerTick, serveBenchChunk)
	fmt.Printf("wrote %s\n\n", outPath)
}

// measureWalAppend builds a fresh rf fleet with a NoSync journal and times
// one Journal.Flush per chunk of ticks, amortizing the flush over the
// ticks it covers. The ticks themselves are excluded from the timer; only
// capture+append+seal is measured.
func measureWalAppend(reg *serve.Registry, pipe *core.Pipeline) serveWalBench {
	hub, boards := buildServeBenchHub(reg, pipe, "rf", false, 1)
	defer hub.Stop()
	defer func() {
		for _, b := range boards {
			b.Stop()
		}
	}()
	dir, err := os.MkdirTemp("", "benchwal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	j, _, err := serve.NewJournal(hub, wal.Options{Dir: dir, NoSync: true, SegmentBytes: 1 << 30})
	if err != nil {
		log.Fatal(err)
	}
	defer j.Close()

	for i := 0; i < serveBenchWarmup; i++ {
		hub.TickAll()
	}
	// The first flush is the full base (every session, the model payload);
	// take it outside the measurement so the chunks see steady-state deltas.
	if _, _, err := j.Flush(); err != nil {
		log.Fatal(err)
	}

	us := make([]float64, 0, serveBenchRepeats)
	var bytesSum float64
	for r := 0; r < serveBenchRepeats; r++ {
		before := j.Status().ActiveBytes
		for i := 0; i < serveBenchChunk; i++ {
			hub.TickAll()
		}
		start := time.Now()
		if _, _, err := j.Flush(); err != nil {
			log.Fatal(err)
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3/serveBenchChunk)
		bytesSum += float64(j.Status().ActiveBytes - before)
	}
	return serveWalBench{
		AppendUsPerTick: median(us),
		BytesPerTick:    bytesSum / float64(serveBenchRepeats*serveBenchChunk),
	}
}

// measureChunk times one fixed chunk of ticks on a warm hub, returning
// µs/inference, allocs/tick, and the realised mean batch size.
func measureChunk(hub *serve.Hub, ticks int) (usPerInf, allocsPerTick, meanBatch float64) {
	before := hub.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < ticks; i++ {
		hub.TickAll()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	after := hub.Snapshot()
	inf := after.Inferences - before.Inferences
	allocsPerTick = float64(ms1.Mallocs-ms0.Mallocs) / float64(ticks)
	if inf > 0 {
		usPerInf = float64(elapsed.Microseconds()) / float64(inf)
	}
	if batches := after.Batches - before.Batches; batches > 0 {
		meanBatch = float64(inf) / float64(batches)
	}
	return usPerInf, allocsPerTick, meanBatch
}

// measureInterleaved warms both hubs, then measures them in alternating
// chunks (order flipping each repeat so drift cancels) and reports the
// median µs/inference of each, plus mean allocs/tick and batch size from the
// telemetry-on hub.
func measureInterleaved(hubOn, hubBare *serve.Hub) (usOn, usBare, allocs, meanBatch float64) {
	for i := 0; i < serveBenchWarmup; i++ {
		hubOn.TickAll()
		hubBare.TickAll()
	}
	ons := make([]float64, 0, serveBenchRepeats)
	bares := make([]float64, 0, serveBenchRepeats)
	var allocSum, batchSum float64
	for r := 0; r < serveBenchRepeats; r++ {
		if r%2 == 0 {
			ub, _, _ := measureChunk(hubBare, serveBenchChunk)
			uo, a, mbatch := measureChunk(hubOn, serveBenchChunk)
			bares, ons = append(bares, ub), append(ons, uo)
			allocSum, batchSum = allocSum+a, batchSum+mbatch
		} else {
			uo, a, mbatch := measureChunk(hubOn, serveBenchChunk)
			ub, _, _ := measureChunk(hubBare, serveBenchChunk)
			bares, ons = append(bares, ub), append(ons, uo)
			allocSum, batchSum = allocSum+a, batchSum+mbatch
		}
	}
	return median(ons), median(bares), allocSum / serveBenchRepeats, batchSum / serveBenchRepeats
}

// measureMedian warms a hub and reports its median chunk µs/inference.
func measureMedian(hub *serve.Hub) float64 {
	for i := 0; i < serveBenchWarmup; i++ {
		hub.TickAll()
	}
	us := make([]float64, 0, serveBenchRepeats)
	for r := 0; r < serveBenchRepeats; r++ {
		u, _, _ := measureChunk(hub, serveBenchChunk)
		us = append(us, u)
	}
	return median(us)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func buildServeBenchHub(reg *serve.Registry, pipe *core.Pipeline, modelKey string, disableTelemetry bool, kernelThreads int) (*serve.Hub, []*board.SyntheticCyton) {
	hub, err := serve.NewHub(serve.Config{
		Shards:              serveBenchShards,
		MaxSessionsPerShard: (serveBenchSessions + serveBenchShards - 1) / serveBenchShards,
		TickHz:              15,
		LatencyWindow:       1024,
		DisableTelemetry:    disableTelemetry,
		KernelThreads:       kernelThreads,
	}, reg)
	if err != nil {
		log.Fatal(err)
	}
	boards := make([]*board.SyntheticCyton, 0, serveBenchSessions)
	for i := 0; i < serveBenchSessions; i++ {
		brd := board.NewSyntheticCyton(eeg.NewSubject(0), uint64(i)*13+7, false)
		if err := brd.Start(); err != nil {
			log.Fatal(err)
		}
		if _, err := hub.Admit(serve.SessionConfig{ModelKey: modelKey, Source: brd, Norm: pipe.NormFor(0)}); err != nil {
			log.Fatal(err)
		}
		boards = append(boards, brd)
	}
	return hub, boards
}

// dirBytes sums the file sizes directly inside dir.
func dirBytes(dir string) int64 {
	var total int64
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, de := range des {
		if info, err := de.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}
