package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave
// above it: a p99 is reported only from at least 1,000 samples.
const minBeyond = 10

// tailPcts are the percentiles the tail rule considers, highest first.
var tailPcts = []float64{99.9, 99, 95, 90, 75, 50}

// Tail is one reported percentile: its level, its value, the sample count
// it was read from and how many samples lie beyond it.
type Tail struct {
	Pct    float64
	Value  float64
	N      int
	Beyond int
}

// Label renders the percentile with its sample count, e.g. "p99 (n=1050)".
func (t Tail) Label() string {
	return fmt.Sprintf("p%s (n=%d)", strconv.FormatFloat(t.Pct, 'f', -1, 64), t.N)
}

// percentile returns the nearest-rank percentile of sorted samples and the
// number of samples ranked above it.
func percentile(sorted []float64, pct float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(pct / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailPercentile applies the reporting rule: the highest percentile, at most
// maxPct, that has at least minBeyond samples beyond it. ok is false when
// not even the median qualifies.
func tailPercentile(samples []float64, maxPct float64) (Tail, bool) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for _, p := range tailPcts {
		if p > maxPct {
			continue
		}
		v, beyond := percentile(sorted, p)
		if beyond >= minBeyond {
			return Tail{Pct: p, Value: v, N: len(sorted), Beyond: beyond}, true
		}
	}
	return Tail{N: len(sorted)}, false
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Step is the outcome of one open-loop rate step.
type Step struct {
	Rate        float64 // offered requests per second
	Sent        int     // requests due in the step
	Failed      int     // 429, other non-200, or transport error
	Tail        Tail    // latency tail from due time, failures counted as misses
	BacklogGrew bool
	GenLate     bool    // the generator itself dispatched late
	Throughput  float64 // completed requests per second over the step
}

// Passed reports whether the step meets the serving limit: nothing failed,
// the latency tail is within limitMS and the backlog did not grow.
func (s Step) Passed(limitMS float64) bool {
	return s.Failed == 0 && s.Tail.N > 0 && s.Tail.Value <= limitMS && !s.BacklogGrew
}

// maxRate applies the ladder rule: walking the steps in ascending rate
// order, the result is the last step that passes before the first one that
// does not. It returns the index of that step, or -1 when the lowest rate
// already fails.
func maxRate(steps []Step, limitMS float64) int {
	order := make([]int, len(steps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steps[order[a]].Rate < steps[order[b]].Rate })
	best := -1
	for _, i := range order {
		if !steps[i].Passed(limitMS) {
			break
		}
		best = i
	}
	return best
}

// backlogGrew reports whether the outstanding requests, sampled at each
// request's due time (in seconds from the step start), trend upward by more
// than limit over the step: the least-squares slope times the step's span.
// A hiccup queues a few requests and drains again; a rate above capacity
// keeps adding to the queue.
func backlogGrew(due []float64, outstanding []int, limit float64) bool {
	n := float64(len(due))
	if n < 2 {
		return false
	}
	var sx, sy, sxx, sxy float64
	for i, x := range due {
		y := float64(outstanding[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return false
	}
	slope := (n*sxy - sx*sy) / den
	return slope*(due[len(due)-1]-due[0]) > limit
}

// metricsDoc is the part of placed's /metrics document the benchmark reads:
// the single tenant's run statistics and telemetry.
type metricsDoc struct {
	Tenants []struct {
		Report struct {
			RunStats struct {
				QueriesPlaced   int64 `json:"queries_placed"`
				QueriesDistinct int64 `json:"queries_distinct"`
				QueriesDeduped  int64 `json:"queries_deduped"`
				Phase1NS        int64 `json:"phase1_ns"`
				Phase2NS        int64 `json:"phase2_ns"`
				PlaceWallNS     int64 `json:"place_wall_ns"`
				PoolBusyNS      int64 `json:"pool_busy_ns"`
			} `json:"run_stats"`
			Memory struct {
				PeakBytes    int64 `json:"peak_bytes"`
				PlannedBytes int64 `json:"planned_bytes"`
			} `json:"memory"`
			Telemetry struct {
				Dedup struct {
					DuplicatesFolded int64 `json:"duplicates_folded"`
					CacheHits        int64 `json:"cache_hits"`
					CacheMisses      int64 `json:"cache_misses"`
				} `json:"dedup"`
				Server struct {
					QueriesReceived int64     `json:"queries_received"`
					Batches         int64     `json:"batches"`
					BatchedQueries  int64     `json:"batched_queries"`
					RequestLatency  histogram `json:"request_latency"`
					BatchLatency    histogram `json:"batch_latency"`
				} `json:"server"`
				Kernel struct {
					TilesExecuted    int64 `json:"tiles_executed"`
					BlockKernelCalls int64 `json:"block_kernel_calls"`
				} `json:"kernel"`
			} `json:"telemetry"`
		} `json:"report"`
	} `json:"tenants"`
}

// histogram mirrors telemetry.HistogramSnapshot: bucket i counts durations
// whose whole microseconds fall in [2^(i-1), 2^i); bucket 0 is below 1 µs.
type histogram struct {
	Buckets []int64 `json:"buckets"`
}

func (h histogram) sub(o histogram) histogram {
	d := histogram{Buckets: make([]int64, len(h.Buckets))}
	for i := range h.Buckets {
		d.Buckets[i] = h.Buckets[i]
		if i < len(o.Buckets) {
			d.Buckets[i] -= o.Buckets[i]
		}
	}
	return d
}

// quantileMS estimates a quantile in milliseconds from the bucket counts,
// interpolating linearly inside the bucket that holds it. 0 when empty.
func (h histogram) quantileMS(q float64) float64 {
	var total int64
	for _, c := range h.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
			}
			frac := (target - cum) / float64(c)
			return (lo + frac*(hi-lo)) / 1e3
		}
		cum += float64(c)
	}
	return math.Ldexp(1, len(h.Buckets)-1) / 1e3
}

// serverDelta is the change in placed's counters over one measured window.
type serverDelta struct {
	QueriesPlaced, QueriesDistinct, QueriesDeduped int64
	Phase1NS, Phase2NS, PlaceWallNS, PoolBusyNS    int64
	DuplicatesFolded, CacheHits, CacheMisses       int64
	QueriesReceived, Batches, BatchedQueries       int64
	TilesExecuted, BlockKernelCalls                int64
	RequestLatency, BatchLatency                   histogram
}

// parseMetrics decodes a /metrics body and checks it holds one tenant.
func parseMetrics(body []byte) (*metricsDoc, error) {
	var d metricsDoc
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	if len(d.Tenants) != 1 {
		return nil, fmt.Errorf("/metrics lists %d tenants, want 1", len(d.Tenants))
	}
	return &d, nil
}

// metricsDelta subtracts two /metrics documents of the same tenant.
func metricsDelta(before, after *metricsDoc) serverDelta {
	a, b := after.Tenants[0].Report, before.Tenants[0].Report
	return serverDelta{
		QueriesPlaced:    a.RunStats.QueriesPlaced - b.RunStats.QueriesPlaced,
		QueriesDistinct:  a.RunStats.QueriesDistinct - b.RunStats.QueriesDistinct,
		QueriesDeduped:   a.RunStats.QueriesDeduped - b.RunStats.QueriesDeduped,
		Phase1NS:         a.RunStats.Phase1NS - b.RunStats.Phase1NS,
		Phase2NS:         a.RunStats.Phase2NS - b.RunStats.Phase2NS,
		PlaceWallNS:      a.RunStats.PlaceWallNS - b.RunStats.PlaceWallNS,
		PoolBusyNS:       a.RunStats.PoolBusyNS - b.RunStats.PoolBusyNS,
		DuplicatesFolded: a.Telemetry.Dedup.DuplicatesFolded - b.Telemetry.Dedup.DuplicatesFolded,
		CacheHits:        a.Telemetry.Dedup.CacheHits - b.Telemetry.Dedup.CacheHits,
		CacheMisses:      a.Telemetry.Dedup.CacheMisses - b.Telemetry.Dedup.CacheMisses,
		QueriesReceived:  a.Telemetry.Server.QueriesReceived - b.Telemetry.Server.QueriesReceived,
		Batches:          a.Telemetry.Server.Batches - b.Telemetry.Server.Batches,
		BatchedQueries:   a.Telemetry.Server.BatchedQueries - b.Telemetry.Server.BatchedQueries,
		TilesExecuted:    a.Telemetry.Kernel.TilesExecuted - b.Telemetry.Kernel.TilesExecuted,
		BlockKernelCalls: a.Telemetry.Kernel.BlockKernelCalls - b.Telemetry.Kernel.BlockKernelCalls,
		RequestLatency:   a.Telemetry.Server.RequestLatency.sub(b.Telemetry.Server.RequestLatency),
		BatchLatency:     a.Telemetry.Server.BatchLatency.sub(b.Telemetry.Server.BatchLatency),
	}
}

// servedShare is the share of received queries answered without placing
// them: result-cache hits plus duplicates folded inside a batch.
func (d serverDelta) servedShare() float64 {
	if d.QueriesReceived == 0 {
		return 0
	}
	return float64(d.CacheHits+d.DuplicatesFolded) / float64(d.QueriesReceived)
}

// parseVmHWM extracts the peak resident set size, in bytes, from the text
// of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q: %w", line, err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// readVmHWM returns the peak resident set size of a live process ("self"
// for this one).
func readVmHWM(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime from the text of /proc/<pid>/stat. The
// command name (field 2) may contain spaces, so fields are counted from the
// closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed stat cpu field %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// readProcCPU returns the CPU time a live process has used so far.
func readProcCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// selfCPU returns this process's user+system CPU time from getrusage.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// placeQPS is the engine's placement throughput over the window: queries
// placed per second of PlaceBatch wall time.
func (d serverDelta) placeQPS() float64 {
	if d.PlaceWallNS == 0 {
		return 0
	}
	return float64(d.QueriesPlaced) / (float64(d.PlaceWallNS) / 1e9)
}
