// Command placebench is the placement benchmark: it generates a workload's
// inputs from a seed, drives the placement layers through their public
// functions (and the placed server through HTTP), checks the outputs, and
// prints every metric with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (normally through run.py, which builds this program and placed):
//
//	placebench --workload neotrop-ml --seed 1 --seconds 20 --trace 0 \
//	    --placed .bench_build/bin/placed --work .bench_build/work
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// turns on telemetry and the benchmark's spans, reports the per-layer
// metrics and writes the spans to <work>/<workload>-<seed>/spans.jsonl.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"phylomem/internal/placement"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with tracing
// off. README.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"place_qps", "1/s"},
	{"mem_peak_bytes", "bytes"},
	{"accuracy_end", "nodes"},
	{"latency_p50_ms", "ms"},
}

// perLayer are the single-layer metrics of the traced run. A metric that
// does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"tree.parse_s", "s"},
	{"seq.msa_s", "s"},
	{"model.spec_s", "s"},
	{"phylo.partition_s", "s"},
	{"placement.new_s", "s"},
	{"placement.precompute_s", "s"},
	{"placement.lookup_build_s", "s"},
	{"seq.decode_s", "s"},
	{"jplace.emit_s", "s"},
	{"jplace.bytes", "bytes"},
	{"placement.place_s", "s"},
	{"placement.phase1_s", "s"},
	{"placement.phase2_s", "s"},
	{"placement.chunk_wait_s", "s"},
	{"kernel.tiles_executed", "count"},
	{"kernel.block_kernel_calls", "count"},
	{"scoring.candidates_integrated", "count"},
	{"scoring.quad_evals", "count"},
	{"scoring.integrate_s", "s"},
	{"scoring.edpl_s", "s"},
	{"core.slots", "count"},
	{"core.hits", "count"},
	{"core.recomputes", "count"},
	{"core.evictions", "count"},
	{"core.recompute_leaf_work", "count"},
	{"core.hit_rate", "ratio"},
	{"clvstore.writes", "count"},
	{"clvstore.reloads", "count"},
	{"clvstore.bytes_written", "bytes"},
	{"clvstore.bytes_reloaded", "bytes"},
	{"clvstore.write_s", "s"},
	{"clvstore.reload_s", "s"},
	{"clvstore.errors", "count"},
	{"clvstore.reload_leaf_work_saved", "count"},
	{"memacct.budget_bytes", "bytes"},
	{"memacct.planned_bytes", "bytes"},
	{"memacct.peak_bytes", "bytes"},
	{"memacct.overshoot_bytes", "bytes"},
	{"process.cpu_s", "s"},
	{"parallel.pool_busy_s", "s"},
	{"placement.queries_distinct", "count"},
	{"dedup.cache_hits", "count"},
	{"dedup.cache_misses", "count"},
	{"dedup.duplicates_folded", "count"},
	{"dedup.served_share", "ratio"},
	{"server.batches", "count"},
	{"server.batch_queries_mean", "count"},
	{"server.request_p50_ms", "ms"},
	{"server.batch_p50_ms", "ms"},
	{"http.ok", "count"},
	{"http.rejected_429", "count"},
	{"http.errors", "count"},
	{"http.latency_p99_ms", "ms"},
	{"http.max_rate_rps", "1/s"},
	{"gen.sent", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.place_qps", "1/s"},
	{"trace.untraced_place_qps", "1/s"},
	{"trace.overhead_share", "ratio"},
}

// batchWorkloads are the in-process workloads, keyed by name.
var batchWorkloads = map[string]batchSpec{
	"neotrop-ml":    {shape: "neotrop", scoring: placement.ScoringML, wantLookup: true},
	"neotrop-bayes": {shape: "neotrop", scoring: placement.ScoringBayes, wantLookup: true},
	"proref-floor":  {shape: "pro_ref", scoring: placement.ScoringML, floor: true, wantAMC: true},
}

// serveWorkload is the served-traffic workload's name.
const serveWorkload = "serve-dup50"

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	placed   string // path of the placed binary
	dataDir  string // generated inputs
	outDir   string // outputs, spill file, spans
}

// result is what one run reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the JSON
	checks            checks
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := runGen(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "placebench gen:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "placebench:", err)
		os.Exit(1)
	}
}

// runGen is the input generator, run as a child process so that the
// simulation's memory never counts toward the measured process's peak.
func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	shape := fs.String("shape", "", "dataset shape: neotrop or pro_ref")
	seed := fs.Int64("seed", 0, "workload seed")
	count := fs.Int("queries", 0, "queries to draw (0 = the shape's own count)")
	dir := fs.String("dir", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return generate(*shape, *seed, *count, *dir)
}

func run(args []string) error {
	fs := flag.NewFlagSet("placebench", flag.ContinueOnError)
	wl := fs.String("workload", "", "neotrop-ml, neotrop-bayes, proref-floor or serve-dup50")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measurement time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	placedBin := fs.String("placed", "", "placed binary (serve-dup50)")
	work := fs.String("work", "", "directory for generated inputs and outputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, isBatch := batchWorkloads[*wl]
	shape, count, dataName := spec.shape, 0, spec.shape
	switch {
	case *wl == serveWorkload:
		shape, count, dataName = "neotrop", serveQueries, "neotrop-serve"
		if *placedBin == "" {
			return errors.New("--placed is required for " + serveWorkload)
		}
	case !isBatch:
		return fmt.Errorf("unknown workload %q", *wl)
	}
	if *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--work, a positive --seconds and --trace 0|1 are required")
	}
	o := options{
		workload: *wl,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		placed:   *placedBin,
		dataDir:  filepath.Join(*work, fmt.Sprintf("data-%s-%d", dataName, *seed)),
		outDir:   filepath.Join(*work, fmt.Sprintf("%s-%d", *wl, *seed)),
	}
	if err := ensureInputs(shape, o.seed, count, o.dataDir); err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var res *result
	var err error
	if isBatch {
		res, err = runBatch(spec, o)
	} else {
		res, err = runServe(o)
	}
	if err != nil {
		return err
	}
	return report(o, res)
}

// ensureInputs generates the data set unless an earlier run left it
// complete; generation runs in a child process.
func ensureInputs(shape string, seed int64, count int, dir string) error {
	if _, err := os.Stat(filepath.Join(dir, doneFile)); err == nil {
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "gen", "--shape", shape, "--seed", strconv.FormatInt(seed, 10),
		"--queries", strconv.Itoa(count), "--dir", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generate %s inputs: %w", shape, err)
	}
	return nil
}

// report prints the human-readable lines and then the result object.
func report(o options, res *result) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.checks.ok(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !o.trace {
			return fmt.Errorf("%s: no value for end-to-end metric %s", o.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", o.workload, d.name, v)
		}
		out.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %16.6g %s\n", d.name, v, d.unit)
	}
	share := 0.0
	if res.attempted > 0 {
		share = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("%-34s %16.6g ratio (%d of %d)\n", "fail_share", share, res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, f := range res.checks.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// medianOf returns the median of f over items.
func medianOf[T any](items []T, f func(T) float64) float64 {
	xs := make([]float64, 0, len(items))
	for _, it := range items {
		xs = append(xs, f(it))
	}
	return median(xs)
}

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }
