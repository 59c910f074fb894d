package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
)

// Serving workload parameters. The load is open loop: request i is due at
// i/rate plus a seeded jitter of up to a quarter interval either way, and
// is sent on whichever of the client connections is free first.
const (
	clientConns     = 2      // at most the machine's two vCPUs
	queriesPerReq   = 2      // half fresh, half repeats renamed
	probeSize       = 16     // probe queries checked against in-process placement
	serveLaunches   = 5      // placed launches timed for setup_s; the last one serves
	nominalRate     = 100.0  // requests/s of the latency measurement
	latencyLimitMS  = 100.0  // p99 limit of a ladder step
	genLateMS       = 10.0   // dispatch lag p99 above which a step is flagged
	maxLatency      = "2ms"  // placed --max-latency, see README.md
	placedNice      = 10     // niceness placed runs at
	rungSeconds     = 1.2    // duration of each ladder step above or below nominal
	warmupSeconds   = 1.0    // unmeasured step at the nominal rate before measuring
	serveQueries    = 11926  // query pool: every request's fresh half is new
	minShare        = 0.40   // lower end of every step's served-share band
	maxShare        = 0.60   // upper end
	nominalSamples  = 1050.0 // requests in the nominal step: p99 needs 1,000
	overheadSamples = 300.0  // untraced requests a traced run compares with
)

// ladder is the fixed rate ladder, in requests per second. It is finer
// where the machine the benchmark was tuned on saturates (300-460/s).
var ladder = []float64{25, 50, 75, nominalRate, 150, 200, 250, 270, 290, 310, 335, 360, 390, 420, 450, 490, 530, 570, 620, 670, 720}

// climbFrom is the rung the ladder search starts from once the nominal
// rate has passed; rungs between it and the nominal rate are tried only if
// it fails.
const climbFrom = 250

// placedProc is a running placed child process.
type placedProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error // receives the Wait result once
}

var servingLine = regexp.MustCompile(`^placed: serving .* on (\S+) \(`)

// launchPlaced starts placed on the data set and returns once /healthz has
// answered 200, with the time from launch to that answer.
func launchPlaced(bin, dataDir string) (*placedProc, time.Duration, error) {
	// placed runs at a lower CPU priority than the load generator, so that
	// on a two-vCPU machine the generator still sends on schedule while
	// placed's workers are busy (see README.md).
	cmd := exec.Command("nice", "-n", fmt.Sprint(placedNice), bin,
		"--tree", filepath.Join(dataDir, treeFile),
		"--ref-msa", filepath.Join(dataDir, refFile),
		"--threads", fmt.Sprint(threads),
		"--max-latency", maxLatency,
		"--listen", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start placed: %w", err)
	}
	p := &placedProc{cmd: cmd, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			if m := servingLine.FindStringSubmatch(line); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		close(addrc)
		p.done <- cmd.Wait()
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			return nil, 0, fmt.Errorf("placed exited before serving: %v", <-p.done)
		}
		p.addr = addr
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, 0, errors.New("placed did not start serving within 60s")
	}
	for {
		resp, err := http.Get("http://" + p.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			p.kill()
			return nil, 0, fmt.Errorf("placed /healthz not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains placed with SIGTERM and waits for it; a non-zero exit means
// its end-of-run audits failed.
func (p *placedProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return err
	}
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("placed drain: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("placed did not drain within 30s")
	}
}

func (p *placedProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// metrics fetches and decodes /metrics.
func (p *placedProc) metrics() (*metricsDoc, error) {
	resp, err := http.Get("http://" + p.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(body)
}

// fastaBody renders sequences as a request body.
func fastaBody(seqs []seq.Sequence) []byte {
	var b bytes.Buffer
	for _, s := range seqs {
		b.WriteByte('>')
		b.WriteString(s.Label)
		b.WriteByte('\n')
		b.Write(s.Data)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// renameSep separates a repeated query's original name from its rename.
const renameSep = "~"

// originalName strips a repeated query's rename suffix.
func originalName(name string) string {
	orig, _, _ := strings.Cut(name, renameSep)
	return orig
}

// request is one scheduled request and, once sent, its outcome.
type request struct {
	due      time.Duration // offset from the step start
	seqs     []seq.Sequence
	body     []byte
	dispatch time.Duration
	start    time.Duration
	end      time.Duration
	status   int
	err      error
	resp     []byte
}

// traffic is the serving workload's query pool and the placements served
// so far, keyed by the original query name.
type traffic struct {
	pool   []seq.Sequence
	next   int // first pool entry never sent
	served map[string][]byte
}

// buildStep schedules n requests at rate, each with half fresh queries and
// half repeats of queries sent earlier in the same step, renamed.
func (tf *traffic) buildStep(rate float64, n int, rng *rand.Rand) ([]*request, error) {
	fresh := queriesPerReq / 2
	if tf.next+n*fresh > len(tf.pool) {
		return nil, fmt.Errorf("query pool exhausted: step needs %d fresh queries, %d left", n*fresh, len(tf.pool)-tf.next)
	}
	interval := float64(time.Second) / rate
	var sent []seq.Sequence
	reqs := make([]*request, n)
	for i := range reqs {
		r := &request{due: time.Duration(float64(i)*interval + (rng.Float64()-0.5)*interval/2)}
		if r.due < 0 {
			r.due = 0
		}
		for k := 0; k < fresh; k++ {
			s := tf.pool[tf.next]
			tf.next++
			r.seqs = append(r.seqs, s)
			sent = append(sent, s)
		}
		for k := fresh; k < queriesPerReq; k++ {
			src := sent[rng.Intn(len(sent))]
			r.seqs = append(r.seqs, seq.Sequence{Label: fmt.Sprintf("%s%sr%d.%d", src.Label, renameSep, i, k), Data: src.Data})
		}
		r.body = fastaBody(r.seqs)
		reqs[i] = r
	}
	return reqs, nil
}

// stepData is everything measured in one rate step.
type stepData struct {
	Step
	reqs        []*request
	lagMS       []float64
	latencies   []float64 // ms from due time; failures are +Inf
	delta       serverDelta
	cpu         time.Duration
	ok, rej429  int
	otherErrors int
}

// runStep sends reqs on schedule over clientConns connections and collects
// their outcomes and placed's counter deltas.
func runStep(p *placedProc, rate float64, reqs []*request, trc *tracer, stepID int) (*stepData, error) {
	before, err := p.metrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := readProcCPU(p.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	url := "http://" + p.addr + "/v1/place"
	work := make(chan *request, len(reqs)) // never blocks the dispatcher
	var completed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clientConns; c++ {
		client := &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for r := range work {
				r.start = time.Since(t0)
				resp, err := client.Post(url, "text/plain", bytes.NewReader(r.body))
				if err == nil {
					r.status = resp.StatusCode
					r.resp, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				r.err = err
				r.end = time.Since(t0)
				completed.Add(1)
			}
		}()
	}
	outstanding := make([]int, 0, len(reqs))
	dues := make([]float64, 0, len(reqs))
	for i, r := range reqs {
		if d := r.due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		r.dispatch = time.Since(t0)
		outstanding = append(outstanding, i-int(completed.Load()))
		dues = append(dues, r.due.Seconds())
		work <- r
	}
	close(work)
	wg.Wait()
	after, err := p.metrics()
	if err != nil {
		return nil, err
	}
	cpu1, err := readProcCPU(p.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	sd := &stepData{reqs: reqs, delta: metricsDelta(before, after), cpu: cpu1 - cpu0}
	sd.Rate = rate
	sd.Sent = len(reqs)
	var last time.Duration
	for i, r := range reqs {
		trc.record("http.request", stepID, i, t0.Add(r.start), t0.Add(r.end))
		sd.lagMS = append(sd.lagMS, float64(r.dispatch-r.due)/1e6)
		switch {
		case r.err != nil:
			sd.otherErrors++
		case r.status == http.StatusTooManyRequests:
			sd.rej429++
		case r.status != http.StatusOK:
			sd.otherErrors++
		default:
			sd.ok++
		}
		lat := math.Inf(1)
		if r.err == nil && r.status == http.StatusOK {
			lat = float64(r.end-r.due) / 1e6
		}
		sd.latencies = append(sd.latencies, lat)
		if r.end > last {
			last = r.end
		}
	}
	sd.Failed = sd.Sent - sd.ok
	sd.Tail, _ = tailPercentile(sd.latencies, 99)
	// A backlog worth one latency limit of arrivals means the newest request
	// waits at least the limit.
	sd.BacklogGrew = backlogGrew(dues, outstanding, math.Max(5, rate*latencyLimitMS/1e3))
	lagTail, _ := tailPercentile(sd.lagMS, 99)
	sd.GenLate = lagTail.Value > genLateMS
	if span := last - reqs[0].due; span > 0 {
		sd.Throughput = float64(sd.ok) / span.Seconds()
	}
	return sd, nil
}

// checkResponses parses every successful response of a step: each must list
// its request's queries in order, and a repeated sequence must get exactly
// the placements its first sending got. It returns the parsed placements.
func (tf *traffic) checkResponses(c *checks, sd *stepData) []jplace.Placements {
	var all []jplace.Placements
	for i, r := range sd.reqs {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		doc, err := jplace.Read(bytes.NewReader(r.resp))
		if err != nil {
			c.failf("request %d: %v", i, err)
			continue
		}
		if len(doc.Queries) != len(r.seqs) {
			c.failf("request %d: %d results for %d queries", i, len(doc.Queries), len(r.seqs))
			continue
		}
		for k, q := range doc.Queries {
			if q.Name != r.seqs[k].Label {
				c.failf("request %d: result %d is %s, want %s", i, k, q.Name, r.seqs[k].Label)
				continue
			}
			b, err := placementBytes([]jplace.Placements{{Placements: q.Placements}}, doc.Fields)
			if err != nil {
				c.failf("request %d: %v", i, err)
				continue
			}
			orig := originalName(q.Name)
			if prev, ok := tf.served[orig]; ok && !bytes.Equal(prev, b) {
				c.failf("request %d: %s placed differently from its first sending", i, q.Name)
			} else if !ok {
				tf.served[orig] = b
			}
			all = append(all, q)
		}
	}
	return all
}

// probeSetup is what building the in-process probe engine cost: the same
// engine build placed performs at startup.
type probeSetup struct {
	engineNew               time.Duration
	precompute, lookupBuild time.Duration
}

// probe sends the probe queries to placed and places the same queries in
// process through PlaceStream; the placements must be byte-identical.
func probe(c *checks, p *placedProc, ref *reference, seqs []seq.Sequence) (probeSetup, error) {
	var ps probeSetup
	body := fastaBody(seqs)
	resp, err := http.Post("http://"+p.addr+"/v1/place", "text/plain", bytes.NewReader(body))
	if err != nil {
		return ps, err
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return ps, err
	}
	if resp.StatusCode != http.StatusOK {
		c.failf("probe: status %d: %s", resp.StatusCode, served)
		return ps, nil
	}
	sdoc, err := jplace.Read(bytes.NewReader(served))
	if err != nil {
		c.failf("probe: %v", err)
		return ps, nil
	}

	cfg := placement.DefaultConfig()
	cfg.Threads = threads
	t0 := time.Now()
	eng, err := placement.New(ref.part, ref.tr, cfg)
	if err != nil {
		return ps, err
	}
	ps.engineNew = time.Since(t0)
	var local []jplace.Placements
	src := placement.NewFastaSource(seq.NewFastaScanner(bytes.NewReader(body)), seq.DNA, ref.width)
	_, err = eng.PlaceStream(context.Background(), src, func(pl jplace.Placements) error {
		local = append(local, pl)
		return nil
	})
	st := eng.Stats()
	ps.precompute, ps.lookupBuild = st.Precompute, st.LookupBuild
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ps, err
	}
	sb, err := placementBytes(sdoc.Queries, sdoc.Fields)
	if err != nil {
		return ps, err
	}
	lb, err := placementBytes(local, nil)
	if err != nil {
		return ps, err
	}
	if !bytes.Equal(sb, lb) {
		c.failf("probe: placed's placements differ from in-process PlaceStream for the same %d queries", len(seqs))
	}
	return ps, nil
}

// runServe runs the serving workload: placed launches timed for setup, the
// probe check, then open-loop rate steps — the nominal rate for latency and
// the ladder above it for the highest sustainable rate.
func runServe(o options) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	var trc *tracer
	if o.trace {
		trc = newTracer()
	}
	// Fewer collections keep the generator's own pauses out of the
	// schedule; this process's memory is not a measured quantity here.
	debug.SetGCPercent(400)
	f, err := os.Open(filepath.Join(o.dataDir, queryFile))
	if err != nil {
		return nil, err
	}
	pool, err := seq.ReadFasta(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return nil, err
	}
	ref, layers, err := loadReference(o.dataDir, trc, 0, 0)
	if err != nil {
		return nil, err
	}
	origins, err := readOrigins(o.dataDir, ref.tr)
	if err != nil {
		return nil, err
	}

	var setups []float64
	var p *placedProc
	for i := 0; i < serveLaunches; i++ {
		sp := trc.begin("placed.launch", 0, -1-i)
		proc, d, err := launchPlaced(o.placed, o.dataDir)
		trc.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < serveLaunches-1 {
			if err := proc.stop(); err != nil {
				return nil, err
			}
			continue
		}
		p = proc
	}
	defer func() {
		if p != nil {
			p.kill()
		}
	}()

	tf := &traffic{pool: pool[probeSize:], served: map[string][]byte{}}
	ps, err := probe(&res.checks, p, ref, pool[:probeSize])
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	var served []jplace.Placements
	step := func(rate, seconds float64, traced bool) (*stepData, error) {
		reqs, err := tf.buildStep(rate, int(math.Round(rate*seconds)), rng)
		if err != nil {
			return nil, err
		}
		t := trc
		if !traced {
			t = nil
		}
		sp := t.begin(fmt.Sprintf("step %.0f/s", rate), 0, 0)
		sd, err := runStep(p, rate, reqs, t, sp)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		res.attempted += sd.Sent
		res.failed += sd.Failed
		served = append(served, tf.checkResponses(&res.checks, sd)...)
		if share := sd.delta.servedShare(); share < minShare || share > maxShare {
			res.checks.failf("step %.0f/s: served share %.3f outside [%.2f, %.2f]", rate, share, minShare, maxShare)
		}
		if sd.GenLate {
			res.notes = append(res.notes, fmt.Sprintf("FLAG step %.0f/s: generator ran late (dispatch lag p99 above %.0f ms)", rate, genLateMS))
		}
		res.notes = append(res.notes, fmt.Sprintf("step %5.0f/s: sent %d ok %d 429 %d err %d, latency %s %.2f ms, backlog grew %v, served share %.3f, %.1f req/s, placed cpu %.2f s",
			rate, sd.Sent, sd.ok, sd.rej429, sd.otherErrors, sd.Tail.Label(), sd.Tail.Value, sd.BacklogGrew, sd.delta.servedShare(), sd.Throughput, sd.cpu.Seconds()))
		return sd, nil
	}

	// The measured schedule: warm-up, (traced runs only: an untraced window
	// for the tracing overhead,) the nominal step, then the ladder search
	// until the time is used.
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if _, err := step(nominalRate, warmupSeconds, false); err != nil {
		return nil, err
	}
	m := res.metrics
	if o.trace {
		plain, err := step(nominalRate, overheadSamples/nominalRate, false)
		if err != nil {
			return nil, err
		}
		m["trace.untraced_place_qps"] = plain.placeQPS()
	}
	nominal, err := step(nominalRate, nominalSamples/nominalRate, o.trace)
	if err != nil {
		return nil, err
	}
	// Read the peak now, after a fixed volume of traffic: the result cache
	// keeps growing through the ladder, which climbs further on a faster
	// machine.
	hwm, err := readVmHWM(fmt.Sprint(p.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	steps := []Step{nominal.Step}
	var stepErr error
	searchLadder(nominal.Passed(latencyLimitMS), func(rate float64) (passed, ok bool) {
		if time.Now().Add(time.Duration(rungSeconds * float64(time.Second))).After(deadline) {
			return false, false
		}
		sd, err := step(rate, rungSeconds, o.trace)
		if err == nil && !sd.Passed(latencyLimitMS) && time.Now().Add(time.Duration(rungSeconds*float64(time.Second))).Before(deadline) {
			// A host stall can fail one short step; a rate above capacity
			// fails the retry too.
			sd, err = step(rate, rungSeconds, o.trace)
		}
		if err != nil {
			stepErr = err
			return false, false
		}
		steps = append(steps, sd.Step)
		return sd.Passed(latencyLimitMS), true
	})
	if stepErr != nil {
		return nil, stepErr
	}
	maxRateRPS := 0.0
	if best := maxRate(steps, latencyLimitMS); best < 0 {
		res.checks.failf("no ladder step met the %.0f ms limit", latencyLimitMS)
	} else {
		maxRateRPS = steps[best].Throughput
	}
	if nominal.Tail.Pct != 99 {
		res.checks.failf("nominal step latency tail is %s, want p99", nominal.Tail.Label())
	}
	res.notes = append(res.notes, fmt.Sprintf("nominal %.0f/s latency %s %.3f ms; highest sustained rate %.1f req/s (tail within %.0f ms, no failure, no backlog growth)",
		nominalRate, nominal.Tail.Label(), nominal.Tail.Value, maxRateRPS, latencyLimitMS))

	acc, err := accuracy(ref.tr, served, origins)
	if err != nil {
		res.checks.failf("accuracy: %v", err)
	}
	final, err := p.metrics()
	if err != nil {
		return nil, err
	}
	stopErr := p.stop()
	p = nil
	if stopErr != nil {
		res.checks.failf("%v", stopErr)
	}

	if !o.trace {
		m["setup_s"] = median(setups)
		m["place_qps"] = nominal.placeQPS()
		m["mem_peak_bytes"] = float64(hwm)
		m["accuracy_end"] = acc
		m["latency_p50_ms"] = median(nominal.latencies)
		return res, nil
	}

	d := nominal.delta
	m["tree.parse_s"] = secs(layers.treeParse)
	m["seq.msa_s"] = secs(layers.msa)
	m["model.spec_s"] = secs(layers.modelSpec)
	m["phylo.partition_s"] = secs(layers.partition)
	m["placement.new_s"] = secs(ps.engineNew)
	m["placement.precompute_s"] = secs(ps.precompute)
	m["placement.lookup_build_s"] = secs(ps.lookupBuild)
	m["placement.place_s"] = float64(d.PlaceWallNS) / 1e9
	m["placement.phase1_s"] = float64(d.Phase1NS) / 1e9
	m["placement.phase2_s"] = float64(d.Phase2NS) / 1e9
	m["kernel.tiles_executed"] = float64(d.TilesExecuted)
	m["kernel.block_kernel_calls"] = float64(d.BlockKernelCalls)
	last := final.Tenants[0].Report
	m["memacct.planned_bytes"] = float64(last.Memory.PlannedBytes)
	m["memacct.peak_bytes"] = float64(last.Memory.PeakBytes)
	m["memacct.overshoot_bytes"] = float64(overshoot(last.Memory.PeakBytes, 0, last.Memory.PlannedBytes))
	m["process.cpu_s"] = secs(nominal.cpu)
	m["parallel.pool_busy_s"] = float64(d.PoolBusyNS) / 1e9
	m["placement.queries_distinct"] = float64(d.QueriesDistinct)
	m["dedup.cache_hits"] = float64(d.CacheHits)
	m["dedup.cache_misses"] = float64(d.CacheMisses)
	m["dedup.duplicates_folded"] = float64(d.DuplicatesFolded)
	m["dedup.served_share"] = d.servedShare()
	m["server.batches"] = float64(d.Batches)
	if d.Batches > 0 {
		m["server.batch_queries_mean"] = float64(d.BatchedQueries) / float64(d.Batches)
	}
	m["server.request_p50_ms"] = d.RequestLatency.quantileMS(0.5)
	m["server.batch_p50_ms"] = d.BatchLatency.quantileMS(0.5)
	m["http.ok"] = float64(nominal.ok)
	m["http.rejected_429"] = float64(nominal.rej429)
	m["http.errors"] = float64(nominal.otherErrors)
	m["http.latency_p99_ms"] = nominal.Tail.Value
	m["http.max_rate_rps"] = maxRateRPS
	m["gen.sent"] = float64(nominal.Sent)
	lag, _ := tailPercentile(nominal.lagMS, 99)
	m["gen.lag_p99_ms"] = lag.Value
	m["trace.place_qps"] = nominal.placeQPS()
	m["trace.overhead_share"] = 1 - m["trace.place_qps"]/m["trace.untraced_place_qps"]
	spanPath := filepath.Join(o.outDir, "spans.jsonl")
	if err := trc.write(spanPath); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans: "+spanPath)
	return res, nil
}

// placeQPS is the serving workload's place_qps: queries received per second
// of CPU time placed spent over the step. Wall-clock engine time would
// count every host stall of a two-vCPU machine against the engine.
func (sd *stepData) placeQPS() float64 {
	if sd.cpu <= 0 {
		return 0
	}
	return float64(sd.delta.QueriesReceived) / sd.cpu.Seconds()
}

// searchLadder finds the highest sustainable rung without trying every
// rung: after a passing nominal step it tries climbFrom and climbs until a
// rung fails; if climbFrom itself fails it descends towards the nominal
// rate until a rung passes. After a failing nominal step it descends below
// it. try reports whether a rung passed; ok=false ends the search (time
// used up or an error). maxRate then reads the result off the steps run.
func searchLadder(nominalPassed bool, try func(rate float64) (passed, ok bool)) {
	at := func(rate float64) int {
		for i, r := range ladder {
			if r == rate {
				return i
			}
		}
		panic(fmt.Sprintf("rate %v is not on the ladder", rate))
	}
	nominal, from := at(nominalRate), at(climbFrom)
	descend := func(i int, floor int) {
		for ; i > floor; i-- {
			if passed, ok := try(ladder[i]); !ok || passed {
				return
			}
		}
	}
	if !nominalPassed {
		descend(nominal-1, -1)
		return
	}
	for i := from; i < len(ladder); i++ {
		passed, ok := try(ladder[i])
		if !ok {
			return
		}
		if !passed {
			if i == from {
				descend(from-1, nominal)
			}
			return
		}
	}
}
