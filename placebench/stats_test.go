package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"phylomem/internal/tree"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		wantPct  float64
		wantVal  float64
		wantBeyd int
	}{
		{n: 1000, wantPct: 99, wantVal: 990, wantBeyd: 10},
		{n: 999, wantPct: 95, wantVal: 950, wantBeyd: 49}, // p99 would leave only 9 beyond
		{n: 10000, wantPct: 99, wantVal: 9900, wantBeyd: 100},
		{n: 100, wantPct: 90, wantVal: 90, wantBeyd: 10},
		{n: 20, wantPct: 50, wantVal: 10, wantBeyd: 10},
	} {
		tail, ok := tailPercentile(seq(tc.n), 99)
		if !ok || tail.Pct != tc.wantPct || tail.Value != tc.wantVal || tail.Beyond != tc.wantBeyd || tail.N != tc.n {
			t.Errorf("n=%d: got %+v ok=%v, want p%v=%v with %d beyond", tc.n, tail, ok, tc.wantPct, tc.wantVal, tc.wantBeyd)
		}
	}
	if tail, ok := tailPercentile(seq(19), 99); ok {
		t.Errorf("19 samples support no percentile, got %+v", tail)
	}
	// maxPct caps the level even when the sample supports more.
	if tail, _ := tailPercentile(seq(100000), 99); tail.Pct != 99 {
		t.Errorf("capped at p99, got p%v", tail.Pct)
	}
	// A failure is an infinite latency: it lands beyond any finite limit.
	xs := seq(1000)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if tail, _ := tailPercentile(xs, 99); !math.IsInf(tail.Value, 1) {
		t.Errorf("11 failures in 1000 must put p99 at +Inf, got %v", tail.Value)
	}
	if got := tailLabel(t, seq(1050)); got != "p99 (n=1050)" {
		t.Errorf("label %q", got)
	}
}

func tailLabel(t *testing.T, xs []float64) string {
	t.Helper()
	tail, _ := tailPercentile(xs, 99)
	return tail.Label()
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %v", m)
	}
}

func TestMaxRateLadder(t *testing.T) {
	okTail := Tail{Pct: 99, Value: 20, N: 1000}
	slow := Tail{Pct: 95, Value: 150, N: 300}
	steps := []Step{
		{Rate: 100, Tail: okTail, Throughput: 100.2},
		{Rate: 150, Tail: okTail, Throughput: 149.8},
		{Rate: 200, Tail: okTail, Throughput: 199.1},
		{Rate: 250, Tail: slow, Throughput: 231},
	}
	if i := maxRate(steps, 100); i != 2 {
		t.Fatalf("latency over the limit: best step %d, want 2", i)
	}
	// Order of measurement does not matter, only rate order.
	shuffled := []Step{steps[3], steps[0], steps[2], steps[1]}
	if i := maxRate(shuffled, 100); shuffled[i].Rate != 200 {
		t.Fatalf("shuffled: best rate %v, want 200", shuffled[i].Rate)
	}
	// A growing backlog fails a step even within the latency limit, and
	// nothing above the first failing step counts.
	grew := append([]Step(nil), steps...)
	grew[1].BacklogGrew = true
	grew[3].Tail = okTail
	if i := maxRate(grew, 100); i != 0 {
		t.Fatalf("backlog growth at 150: best step %d, want 0", i)
	}
	// One failed request fails the step.
	failed := append([]Step(nil), steps...)
	failed[0].Failed = 1
	if i := maxRate(failed, 100); i != -1 {
		t.Fatalf("failure at the lowest rate: best step %d, want -1", i)
	}
	// A step with no latency sample cannot pass.
	if (Step{Rate: 10}).Passed(100) {
		t.Fatal("empty step passed")
	}
}

func TestBacklogGrew(t *testing.T) {
	const rate, secs = 200.0, 1.5
	n := int(rate * secs)
	due := make([]float64, n)
	for i := range due {
		due[i] = float64(i) / rate
	}
	steady := make([]int, n)
	hiccup := make([]int, n)
	growing := make([]int, n)
	for i := range steady {
		steady[i] = i % 3
		hiccup[i] = i % 3
		growing[i] = i / 8 // capacity 7/8 of the offered rate
	}
	for i := n / 2; i < n/2+10; i++ { // a 50 ms stall queues ten requests, then drains
		hiccup[i] = i - n/2 + 1
	}
	limit := rate * latencyLimitMS / 1e3
	if backlogGrew(due, steady, limit) {
		t.Error("steady queue reported as growing")
	}
	if backlogGrew(due, hiccup, limit) {
		t.Error("a drained hiccup reported as growing")
	}
	if !backlogGrew(due, growing, limit) {
		t.Error("queue growing at 1/8 of the rate not reported")
	}
	if backlogGrew(due[:1], growing[:1], limit) {
		t.Error("one sample cannot show growth")
	}
}

// metricsBody renders a minimal /metrics document for one tenant.
func metricsBody(t *testing.T, placed, wallNS, received, hits, folded int64, reqBuckets []int64) []byte {
	t.Helper()
	doc := map[string]any{
		"schema_version": 1,
		"tenants": []any{map[string]any{
			"id": "default",
			"report": map[string]any{
				"run_stats": map[string]any{"queries_placed": placed, "place_wall_ns": wallNS, "phase2_ns": wallNS / 2},
				"memory":    map[string]any{"peak_bytes": 1000, "planned_bytes": 900},
				"telemetry": map[string]any{
					"dedup": map[string]any{"cache_hits": hits, "duplicates_folded": folded},
					"server": map[string]any{
						"queries_received": received,
						"batches":          placed / 4,
						"batched_queries":  placed,
						"request_latency":  map[string]any{"count": 0, "buckets": reqBuckets},
						"batch_latency":    map[string]any{"count": 0, "buckets": []int64{0}},
					},
				},
			},
		}},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics(metricsBody(t, 100, 1e9, 200, 80, 20, []int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5}))
	if err != nil {
		t.Fatal(err)
	}
	// 400 more queries received, of which 150 cache hits and 50 folded; the
	// new request latencies all fall in bucket 13 ([4096, 8192) µs).
	after, err := parseMetrics(metricsBody(t, 300, 2e9, 600, 230, 70, []int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 10}))
	if err != nil {
		t.Fatal(err)
	}
	d := metricsDelta(before, after)
	if d.QueriesPlaced != 200 || d.PlaceWallNS != 1e9 || d.Phase2NS != 5e8 || d.QueriesReceived != 400 {
		t.Fatalf("delta %+v", d)
	}
	if got := d.placeQPS(); got != 200 {
		t.Errorf("placeQPS %v, want 200", got)
	}
	if got := d.servedShare(); got != 0.5 {
		t.Errorf("served share %v, want 0.5", got)
	}
	if got := d.RequestLatency.quantileMS(0.5); got != 6.144 {
		t.Errorf("request p50 %v ms, want 6.144 (midway through [4.096, 8.192))", got)
	}
	if got := d.BatchLatency.quantileMS(0.5); got != 0 {
		t.Errorf("empty histogram quantile %v, want 0", got)
	}
	if _, err := parseMetrics([]byte(`{"tenants":[]}`)); err == nil {
		t.Error("a document without the tenant must be rejected")
	}
	if _, err := parseMetrics([]byte(`{`)); err == nil {
		t.Error("malformed JSON must be rejected")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tplaced\nVmPeak:\t  812344 kB\nVmHWM:\t   24584 kB\nVmRSS:\t   20000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 24584*1024 {
		t.Fatalf("got %d, %v", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("missing VmHWM must be an error")
	}
	if _, err := parseVmHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("unexpected unit must be an error")
	}
	self, err := readVmHWM("self")
	if err != nil || self <= 0 {
		t.Errorf("own VmHWM %d, %v", self, err)
	}
}

func TestParseStatCPU(t *testing.T) {
	// Field 2 holds spaces and a parenthesis; utime=250 and stime=50 ticks.
	stat := "4242 (pla ced) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 7 0 1000 800000 5000\n"
	got, err := parseStatCPU(stat)
	if err != nil || got != 3*time.Second {
		t.Fatalf("got %v, %v; want 3s", got, err)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("short stat line must be an error")
	}
	if _, err := readProcCPU(os.Getpid()); err != nil {
		t.Errorf("own stat: %v", err)
	}
	if selfCPU() <= 0 {
		t.Error("getrusage reported no CPU time")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{Start: 0, End: 100 * ms}
	children := []span{
		{Start: 10 * ms, End: 30 * ms},
		{Start: 20 * ms, End: 40 * ms},   // overlaps the first
		{Start: 90 * ms, End: 120 * ms},  // clipped at the parent's end
		{Start: 200 * ms, End: 210 * ms}, // outside the parent
	}
	if got := selfTime(parent, children); got != 60*ms {
		t.Errorf("self time %v, want 60ms", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Errorf("no children: %v", got)
	}
}

func TestNodeKeysSurviveNewickRoundTrip(t *testing.T) {
	const nwk = "((a:1,b:1):1,(c:1,d:1):1,(e:1,(f:1,g:1):1):1);"
	tr, err := tree.ParseNewick(nwk)
	if err != nil {
		t.Fatal(err)
	}
	keys := nodeKeys(tr)
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("key %q names two nodes", k)
		}
		seen[k] = true
	}
	back, err := tree.ParseNewick(tr.WriteNewick())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range nodeKeys(back) {
		if !seen[k] {
			t.Errorf("key %q of the round-tripped tree is unknown", k)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names and units printed
// here in step with the repository's BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", what, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	names := map[string]bool{serveWorkload: true}
	for n := range batchWorkloads {
		names[n] = true
	}
	if len(doc.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(names))
	}
	for _, w := range doc.Workloads {
		if !names[w.Name] {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
}

func TestSearchLadder(t *testing.T) {
	// capacity is the highest rate that passes; every rung above fails.
	run := func(nominalPassed bool, capacity float64, budget int) (tried []float64) {
		searchLadder(nominalPassed, func(rate float64) (bool, bool) {
			if len(tried) == budget {
				return false, false
			}
			tried = append(tried, rate)
			return rate <= capacity, true
		})
		return tried
	}
	eq := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	idx := func(rate float64) int {
		for i, r := range ladder {
			if r == rate {
				return i
			}
		}
		t.Fatalf("%v is not on the ladder", rate)
		return -1
	}
	f, n := idx(climbFrom), idx(nominalRate)
	if f-2 <= n || n < 2 {
		t.Fatal("the cases below need two rungs between nominal and climbFrom and two below nominal")
	}
	for _, tc := range []struct {
		name          string
		nominalPassed bool
		capacity      float64
		budget        int
		want          []float64
	}{
		{"climb to the first failure", true, ladder[f+3], 99, ladder[f : f+5]},
		{"start rung fails, descend to a pass", true, ladder[f-2], 99, []float64{ladder[f], ladder[f-1], ladder[f-2]}},
		{"descend stops above the nominal rate", true, nominalRate, 99, reversed(ladder[n+1 : f+1])},
		{"nominal fails, descend below it", false, ladder[n-2], 99, []float64{ladder[n-1], ladder[n-2]}},
		{"time runs out", true, ladder[len(ladder)-1], 3, ladder[f : f+3]},
	} {
		if got := run(tc.nominalPassed, tc.capacity, tc.budget); !eq(got, tc.want) {
			t.Errorf("%s: tried %v, want %v", tc.name, got, tc.want)
		}
	}
	// The search and the ladder rule agree on the highest sustainable rung.
	steps := []Step{{Rate: nominalRate, Tail: Tail{Pct: 99, Value: 10, N: 1050}}}
	searchLadder(true, func(rate float64) (bool, bool) {
		s := Step{Rate: rate, Tail: Tail{Pct: 95, Value: 10, N: 300}}
		if rate > ladder[f+2] {
			s.BacklogGrew = true
		}
		steps = append(steps, s)
		return s.Passed(latencyLimitMS), true
	})
	if i := maxRate(steps, latencyLimitMS); steps[i].Rate != ladder[f+2] {
		t.Errorf("max rate %v, want %v", steps[i].Rate, ladder[f+2])
	}
}

func reversed(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}
