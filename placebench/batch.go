package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"phylomem/internal/core"
	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
)

// threads is the placement worker count of every workload: the machine the
// benchmark was tuned on has two vCPUs, and more workers than CPUs would
// measure the scheduler.
const threads = 2

// setupReps is how many extra reference loads plus engine builds a batch
// run times before placing, so setup_s is a median of at least this many.
const setupReps = 9

// minPasses is the least number of placement passes a batch run makes,
// however long one pass takes.
const minPasses = 3

// floorChunk is proref-floor's chunk size: small enough that the chunk
// buffers leave the slot floor within a few MiB, as in the paper's
// memory-constrained runs.
const floorChunk = 40

// batchSpec pins one batch workload's engine configuration and the mode the
// budget planner must choose for it.
type batchSpec struct {
	shape      string
	scoring    placement.ScoringMode
	floor      bool // --maxmem at the slot floor with the hybrid spill tier
	wantAMC    bool
	wantLookup bool
}

// engineConfig builds the placement configuration for spec on ref.
func (spec batchSpec) engineConfig(ref *reference, workDir string, sink *telemetry.Sink) placement.Config {
	cfg := placement.DefaultConfig()
	cfg.Threads = threads
	cfg.Scoring = spec.scoring
	cfg.EDPL = spec.scoring == placement.ScoringBayes
	cfg.Telemetry = sink
	if spec.floor {
		// One worker plus the engine's asynchronous precompute thread fills
		// the two vCPUs; with two workers the three threads contend and the
		// pass time swings with the scheduler. As in benchrun's AMC configs,
		// one worker also keeps slot misses a function of the workload.
		cfg.Threads = 1
		cfg.ChunkSize = floorChunk
		cfg.SpillPolicy = core.SpillPolicyByName("hybrid")
		cfg.SpillPath = filepath.Join(workDir, "spill.bin")
		cfg.MaxMem = memacct.MinFeasibleBytes(planConfig(ref, cfg))
	}
	return cfg
}

// planConfig describes ref and cfg to the budget planner exactly as
// placement.PlanFor does, so the floor ceiling is the engine's own number.
func planConfig(ref *reference, cfg placement.Config) memacct.PlanConfig {
	return memacct.PlanConfig{
		MaxMem:    cfg.MaxMem,
		Branches:  ref.tr.NumBranches(),
		InnerCLVs: ref.tr.NumInnerCLVs(),
		MinSlots:  ref.tr.MinSlots() + 1,
		Patterns:  ref.part.NumPatterns(),
		Sites:     ref.part.Comp.OriginalWidth(),
		States:    ref.part.States(),
		CLVBytes:  ref.part.CLVBytes(),
		NumLeaves: ref.tr.NumLeaves(),
		ChunkSize: cfg.ChunkSize,
		BlockSize: cfg.BlockSize,
	}
}

// setupSample is one timed reference load plus engine build.
type setupSample struct {
	total, engineNew time.Duration
	layers           setupTimes
}

// buildEngine loads the reference from dataDir and builds an engine for
// spec, timing both.
func buildEngine(spec batchSpec, dataDir, workDir string, sink *telemetry.Sink, trc *tracer, req int) (*reference, *placement.Engine, placement.Config, setupSample, error) {
	var s setupSample
	root := trc.begin("setup", 0, req)
	defer trc.end(root)
	t0 := time.Now()
	ref, layers, err := loadReference(dataDir, trc, root, req)
	if err != nil {
		return nil, nil, placement.Config{}, s, err
	}
	cfg := spec.engineConfig(ref, workDir, sink)
	t1 := time.Now()
	sp := trc.begin("placement.New", root, req)
	eng, err := placement.New(ref.part, ref.tr, cfg)
	trc.end(sp)
	if err != nil {
		return nil, nil, cfg, s, err
	}
	now := time.Now()
	s = setupSample{total: now.Sub(t0), engineNew: now.Sub(t1), layers: layers}
	return ref, eng, cfg, s, nil
}

// timedSource wraps the engine's FASTA source, timing each chunk decode.
// PlaceStream calls NextChunk from one goroutine at a time and joins it
// before returning, so busy needs no lock.
type timedSource struct {
	src    *placement.FastaSource
	trc    *tracer
	parent int
	req    int
	busy   time.Duration
}

func (s *timedSource) NextChunk(max int) ([]placement.Query, error) {
	t0 := time.Now()
	qs, err := s.src.NextChunk(max)
	t1 := time.Now()
	s.busy += t1.Sub(t0)
	s.trc.record("seq.decode", s.parent, s.req, t0, t1)
	return qs, err
}

// passResult is one placement pass over the whole query file.
type passResult struct {
	traced    bool
	wall      time.Duration // PlaceStream start until the jplace file is closed
	queries   int
	latencies []float64 // per query: ms from PlaceStream start to the sink
	cpu       time.Duration
	decode    time.Duration
	emit      time.Duration
	placeSelf time.Duration
	outBytes  int64
	digest    [32]byte
	stats     placement.RunStats
	plan      memacct.Plan
	maxMem    int64
	snap      telemetry.Snapshot
}

// runPass builds a fresh engine, places every query of the data set through
// PlaceStream, writes the jplace file and closes the engine.
func runPass(spec batchSpec, dataDir, workDir, outPath string, traced bool, trc *tracer, req int) (passResult, setupSample, error) {
	res := passResult{traced: traced}
	var sink *telemetry.Sink
	if traced {
		sink = telemetry.NewSink()
	} else {
		trc = nil
	}
	ref, eng, cfg, setup, err := buildEngine(spec, dataDir, workDir, sink, trc, req)
	if err != nil {
		return res, setup, err
	}
	res.maxMem = cfg.MaxMem
	res.plan = eng.Plan()
	closed := false
	defer func() {
		if !closed {
			eng.Close()
		}
		if cfg.SpillPath != "" {
			os.Remove(cfg.SpillPath)
		}
	}()

	qf, err := os.Open(filepath.Join(dataDir, queryFile))
	if err != nil {
		return res, setup, err
	}
	defer qf.Close()

	root := trc.begin("pass", 0, req)
	cpu0 := selfCPU()
	start := time.Now()
	psSpan := trc.begin("placement.PlaceStream", root, req)
	src := &timedSource{
		src:    placement.NewFastaSource(seq.NewFastaScanner(bufio.NewReader(qf)), seq.DNA, ref.width),
		trc:    trc,
		parent: psSpan,
		req:    req,
	}
	var placed []jplace.Placements
	n, err := eng.PlaceStream(context.Background(), src, func(p jplace.Placements) error {
		res.latencies = append(res.latencies, float64(time.Since(start))/1e6)
		placed = append(placed, p)
		return nil
	})
	trc.end(psSpan)
	if err != nil {
		return res, setup, fmt.Errorf("PlaceStream: %w", err)
	}
	t1 := time.Now()
	emitSpan := trc.begin("jplace.Write", root, req)
	doc := &jplace.Document{Tree: jplace.TreeString(ref.tr), Queries: placed, Invocation: "placebench"}
	if spec.scoring == placement.ScoringBayes {
		doc.Fields = jplace.FieldsBayes
	}
	size, digest, err := writeJplace(outPath, doc)
	trc.end(emitSpan)
	if err != nil {
		return res, setup, err
	}
	end := time.Now()
	trc.end(root)

	res.wall = end.Sub(start)
	res.emit = end.Sub(t1)
	res.cpu = selfCPU() - cpu0
	res.queries = n
	res.decode = src.busy
	res.outBytes = size
	res.digest = digest
	if traced {
		spans := trc.snapshot()
		res.placeSelf = selfTime(spans[psSpan-1], childrenOf(spans, psSpan))
	}
	res.stats = eng.Stats()
	res.snap = sink.Snapshot()
	closed = true
	if err := eng.Close(); err != nil {
		return res, setup, fmt.Errorf("engine close audit: %w", err)
	}
	return res, setup, nil
}

// writeJplace writes doc to path and returns its size and SHA-256.
func writeJplace(path string, doc *jplace.Document) (int64, [32]byte, error) {
	var digest [32]byte
	f, err := os.Create(path)
	if err != nil {
		return 0, digest, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	h := sha256.New()
	cw := &countingWriter{w: io.MultiWriter(bw, h)}
	if err := jplace.Write(cw, doc); err != nil {
		f.Close()
		return 0, digest, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, digest, err
	}
	if err := f.Close(); err != nil {
		return 0, digest, err
	}
	copy(digest[:], h.Sum(nil))
	return cw.n, digest, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// runBatch runs one in-process workload: setup repetitions, then placement
// passes over the whole query file until the measuring time is used, then
// the correctness and self checks on the outputs.
func runBatch(spec batchSpec, o options) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	var trc *tracer
	if o.trace {
		trc = newTracer()
	}
	var setups []setupSample
	for i := 0; i < setupReps; i++ {
		_, eng, cfg, s, err := buildEngine(spec, o.dataDir, o.outDir, nil, trc, -1-i)
		if err != nil {
			return nil, err
		}
		err = eng.Close()
		if cfg.SpillPath != "" {
			os.Remove(cfg.SpillPath)
		}
		if err != nil {
			return nil, fmt.Errorf("engine close audit: %w", err)
		}
		setups = append(setups, s)
	}

	names, err := readQueryNames(filepath.Join(o.dataDir, queryFile))
	if err != nil {
		return nil, err
	}
	outPath := filepath.Join(o.outDir, "result.jplace")
	var passes []passResult
	start := time.Now()
	for i := 0; ; i++ {
		// Each pass starts from a collected heap, as a fresh CLI process
		// would, so the previous pass's garbage does not add to the peak.
		runtime.GC()
		traced := o.trace && i%2 == 1
		p, s, err := runPass(spec, o.dataDir, o.outDir, outPath, traced, trc, i)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		setups = append(setups, s)
		passes = append(passes, p)
		elapsed := time.Since(start).Seconds()
		perPass := elapsed / float64(len(passes))
		if len(passes) >= minPasses && elapsed+perPass > o.seconds {
			break
		}
	}
	hwm, err := readVmHWM("self")
	if err != nil {
		return nil, err
	}

	// Correctness: the last pass's file against the input, every pass's
	// bytes against the first, and the workload's pinned mechanism.
	doc, err := readJplace(outPath)
	if err != nil {
		res.checks.failf("jplace round trip: %v", err)
	}
	ref, _, err := loadReference(o.dataDir, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	acc := math.NaN()
	if doc != nil {
		checkPlacements(&res.checks, "jplace", ref.tr, doc, names)
		origins, err := readOrigins(o.dataDir, ref.tr)
		if err != nil {
			return nil, err
		}
		if acc, err = accuracy(ref.tr, doc.Queries, origins); err != nil {
			res.checks.failf("accuracy: %v", err)
		}
	}
	for i, p := range passes {
		if p.digest != passes[0].digest {
			res.checks.failf("pass %d wrote different jplace bytes than pass 0", i)
		}
		if p.plan.AMC != spec.wantAMC || p.plan.LookupEnabled != spec.wantLookup {
			res.checks.failf("pass %d: planner chose AMC=%v lookup=%v, workload pins AMC=%v lookup=%v",
				i, p.plan.AMC, p.plan.LookupEnabled, spec.wantAMC, spec.wantLookup)
		}
		if spec.floor && p.stats.CLVStats.SpillWrites == 0 {
			res.checks.failf("pass %d: no spill writes at the slot floor", i)
		}
		res.attempted += len(names)
		res.failed += len(names) - p.queries
	}
	if math.IsNaN(acc) {
		acc = 0
	}

	var plain, traced []passResult
	var lat []float64
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
			lat = append(lat, p.latencies...)
		}
	}
	qps := func(p passResult) float64 { return float64(p.queries) / p.wall.Seconds() }
	m := res.metrics
	if !o.trace {
		tail, _ := tailPercentile(lat, 99)
		m["setup_s"] = medianOf(setups, func(s setupSample) float64 { return secs(s.total) })
		m["place_qps"] = medianOf(plain, qps)
		m["mem_peak_bytes"] = float64(hwm)
		m["accuracy_end"] = acc
		m["latency_p50_ms"] = median(lat)
		perPass := make([]string, len(plain))
		for i, p := range plain {
			perPass[i] = fmt.Sprintf("%.1f", qps(p))
		}
		res.notes = append(res.notes,
			fmt.Sprintf("passes %d (queries/s %s), setups %d, time to result %s %.1f ms, mode AMC=%v lookup=%v slots=%d, maxmem %d",
				len(plain), strings.Join(perPass, " "), len(setups), tail.Label(), tail.Value, passes[0].plan.AMC,
				passes[0].plan.LookupEnabled, passes[0].plan.Slots, passes[0].maxMem))
		return res, nil
	}

	layerSetup := func(f func(setupSample) time.Duration) float64 {
		return medianOf(setups, func(s setupSample) float64 { return secs(f(s)) })
	}
	m["tree.parse_s"] = layerSetup(func(s setupSample) time.Duration { return s.layers.treeParse })
	m["seq.msa_s"] = layerSetup(func(s setupSample) time.Duration { return s.layers.msa })
	m["model.spec_s"] = layerSetup(func(s setupSample) time.Duration { return s.layers.modelSpec })
	m["phylo.partition_s"] = layerSetup(func(s setupSample) time.Duration { return s.layers.partition })
	m["placement.new_s"] = layerSetup(func(s setupSample) time.Duration { return s.engineNew })
	layer := func(name string, f func(p passResult) float64) { m[name] = medianOf(traced, f) }
	layer("placement.precompute_s", func(p passResult) float64 { return secs(p.stats.Precompute) })
	layer("placement.lookup_build_s", func(p passResult) float64 { return secs(p.stats.LookupBuild) })
	layer("seq.decode_s", func(p passResult) float64 { return secs(p.decode) })
	layer("jplace.emit_s", func(p passResult) float64 { return secs(p.emit) })
	layer("jplace.bytes", func(p passResult) float64 { return float64(p.outBytes) })
	layer("placement.place_s", func(p passResult) float64 { return secs(p.placeSelf) })
	layer("placement.phase1_s", func(p passResult) float64 { return secs(p.stats.Phase1) })
	layer("placement.phase2_s", func(p passResult) float64 { return secs(p.stats.Phase2) })
	layer("placement.chunk_wait_s", func(p passResult) float64 { return secs(p.stats.ChunkWait) })
	layer("kernel.tiles_executed", func(p passResult) float64 { return float64(p.snap.Kernel.TilesExecuted) })
	layer("kernel.block_kernel_calls", func(p passResult) float64 { return float64(p.snap.Kernel.BlockKernelCalls) })
	layer("scoring.candidates_integrated", func(p passResult) float64 { return float64(p.snap.Scoring.CandidatesIntegrated) })
	layer("scoring.quad_evals", func(p passResult) float64 { return float64(p.snap.Scoring.QuadEvals) })
	layer("scoring.integrate_s", func(p passResult) float64 { return float64(p.snap.Scoring.IntegrateNS) / 1e9 })
	layer("scoring.edpl_s", func(p passResult) float64 { return float64(p.snap.Scoring.EDPLNS) / 1e9 })
	layer("core.slots", func(p passResult) float64 {
		if !p.plan.AMC {
			return 0
		}
		return float64(p.plan.Slots)
	})
	cs := func(p passResult) (hits, recomputes float64) {
		return float64(p.stats.CLVStats.Hits), float64(p.stats.CLVStats.Recomputes)
	}
	layer("core.hits", func(p passResult) float64 { h, _ := cs(p); return h })
	layer("core.recomputes", func(p passResult) float64 { _, r := cs(p); return r })
	layer("core.evictions", func(p passResult) float64 { return float64(p.stats.CLVStats.Evictions) })
	layer("core.recompute_leaf_work", func(p passResult) float64 { return float64(p.stats.CLVStats.RecomputeLeafWork) })
	layer("core.hit_rate", func(p passResult) float64 {
		h, r := cs(p)
		if h+r == 0 {
			return 0
		}
		return h / (h + r)
	})
	layer("clvstore.writes", func(p passResult) float64 { return float64(p.snap.Spill.Writes) })
	layer("clvstore.reloads", func(p passResult) float64 { return float64(p.snap.Spill.Reloads) })
	layer("clvstore.bytes_written", func(p passResult) float64 { return float64(p.snap.Spill.BytesWritten) })
	layer("clvstore.bytes_reloaded", func(p passResult) float64 { return float64(p.snap.Spill.BytesReloaded) })
	layer("clvstore.write_s", func(p passResult) float64 { return float64(p.snap.Spill.WriteNS) / 1e9 })
	layer("clvstore.reload_s", func(p passResult) float64 { return float64(p.snap.Spill.ReloadNS) / 1e9 })
	layer("clvstore.errors", func(p passResult) float64 { return float64(p.snap.Spill.Errors) })
	layer("clvstore.reload_leaf_work_saved", func(p passResult) float64 { return float64(p.snap.Spill.ReloadLeafWorkSaved) })
	layer("memacct.budget_bytes", func(p passResult) float64 { return float64(p.maxMem) })
	layer("memacct.planned_bytes", func(p passResult) float64 { return float64(p.plan.TotalBytes) })
	layer("memacct.peak_bytes", func(p passResult) float64 { return float64(p.stats.PeakBytes) })
	layer("memacct.overshoot_bytes", func(p passResult) float64 { return float64(overshoot(p.stats.PeakBytes, p.maxMem, p.plan.TotalBytes)) })
	layer("process.cpu_s", func(p passResult) float64 { return secs(p.cpu) })
	layer("parallel.pool_busy_s", func(p passResult) float64 { return secs(p.stats.PoolBusy) })
	layer("placement.queries_distinct", func(p passResult) float64 { return float64(p.stats.QueriesDistinct) })
	layer("dedup.duplicates_folded", func(p passResult) float64 { return float64(p.stats.QueriesDeduped) })
	layer("dedup.served_share", func(p passResult) float64 { return float64(p.stats.QueriesDeduped) / float64(p.queries) })
	layer("trace.place_qps", qps)
	m["trace.untraced_place_qps"] = medianOf(plain, qps)
	m["trace.overhead_share"] = 1 - m["trace.place_qps"]/m["trace.untraced_place_qps"]
	spanPath := filepath.Join(o.outDir, "spans.jsonl")
	if err := trc.write(spanPath); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %s (%d traced, %d untraced passes)", spanPath, len(traced), len(plain)))
	return res, nil
}

// overshoot is how far the accounted peak went past the ceiling: the
// --maxmem budget when one is set, the plan otherwise. Never negative.
func overshoot(peak, budget, planned int64) int64 {
	limit := budget
	if limit == 0 {
		limit = planned
	}
	if peak <= limit {
		return 0
	}
	return peak - limit
}
