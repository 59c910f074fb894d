// Command placed is the long-running placement server: a fleet of placement
// engines — one per reference tree in a catalog — built lazily on first
// request, kept warm, and governed by one global memory budget. Each engine
// carries its own AMC slot manager, lookup table, micro-batcher, admission
// cap, result cache, and telemetry; the fleet controller reacts to global
// pressure by shrinking a cold engine's slot pool, demoting its CLVs to the
// disk spill tier, or evicting the engine entirely, choosing victims by
// measured recompute cost and reload bandwidth.
//
//	POST /v1/place[?tree=id]  aligned-FASTA body in, jplace document out
//	GET  /healthz             liveness + lock-free fleet counters
//	GET  /metrics             fleet document: budget, per-tenant reports
//	POST /admin/reclaim       apply one reclaim lever (tests, drills)
//
// Single-tree catalogs (including the legacy --tree/--ref-msa/--db flags)
// keep the old contract: the tree parameter may be omitted and the engine is
// prewarmed at startup. Concurrent requests are coalesced per tenant by a
// micro-batcher (--max-batch, --max-latency). Admission control reserves
// each request's query bytes against the tenant's budget AND the global one
// (hierarchical accountants); requests beyond either receive 429 with a
// Retry-After header rather than growing the footprint. SIGTERM/SIGINT
// drains: in-flight requests finish, pending batches flush, and every
// engine's end-of-run audits plus the fleet-level accountant drain run
// before exit.
//
// Usage:
//
//	placed --tree ref.nwk --ref-msa ref.fasta --listen :8433
//	placed --catalog trees.json --fleet-maxmem 8G --maxmem 4G
//	placed ... --max-batch 512 --max-latency 10ms --stats-json stats.json
//
// Exit codes follow epang: 0 success, 1 input or usage error, 2 internal
// invariant violation, 130 interrupted before serving began.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"phylomem/internal/core"
	"phylomem/internal/memacct"
	"phylomem/internal/placement"
	"phylomem/internal/refdb"
	"phylomem/internal/telemetry"
)

func main() {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "placed:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode mirrors epang's failure classes: 1 input or usage error, 2
// internal invariant violation (accounting leak at either level, overcommit,
// slot-map corruption), 130 interrupted before the server came up.
func exitCode(err error) int {
	switch {
	case errors.Is(err, core.ErrInvariant),
		errors.Is(err, memacct.ErrNotDrained),
		errors.Is(err, memacct.ErrOvercommit):
		return 2
	case errors.Is(err, context.Canceled):
		return 130
	}
	return 1
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("placed", flag.ContinueOnError)
	refFlags := refdb.BindFlags(fs)
	// The server has no per-request field selection, so it offers no --edpl:
	// posterior mode always serves the full uncertainty picture.
	engFlags := placement.BindFlags(fs, "maxmem", "chunk-size", "block-size", "threads", "no-heur",
		"tile-queries", "tile-branches", "dedup", "scoring", "memsave-strategy",
		"clv-spill", "clv-spill-path", "clv-spill-policy")
	var (
		listen      = fs.String("listen", ":8433", "HTTP listen address")
		catalogFlag = fs.String("catalog", "", "tree catalog file (JSON); serves every listed tree, engines built on first request")
		fleetMaxmem = fs.String("fleet-maxmem", "", "global memory ceiling across all engines, e.g. 8G (empty = unlimited)")
		cacheSize   = fs.String("result-cache", "64M", "per-tenant cross-request result cache size, e.g. 64M (0 disables); cache bytes count against the budgets and are evicted first under pressure")
		maxInflight = fs.String("max-inflight", "", "per-tenant admission cap on in-flight query bytes, e.g. 64K (empty = derive from the tenant's --maxmem plan)")
		maxBatch    = fs.Int("max-batch", 256, "flush a micro-batch once this many queries are pending")
		maxLatency  = fs.Duration("max-latency", 20*time.Millisecond, "flush a micro-batch this long after its first query arrives")
		reqTimeout  = fs.Duration("request-timeout", 30*time.Second, "per-request placement deadline")
		drainWait   = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
		statsJSON   = fs.String("stats-json", "", "write the fleet metrics document (budget + per-tenant reports) to this file at shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := engFlags.Config()
	if err != nil {
		return err
	}
	cfg.EDPL = cfg.Scoring == placement.ScoringBayes
	// --maxmem is the per-engine default; catalog entries may override it.
	defaultMaxMem := cfg.MaxMem
	var fleetLimit int64
	if *fleetMaxmem != "" {
		limit, err := memacct.ParseBytes(*fleetMaxmem)
		if err != nil {
			return fmt.Errorf("--fleet-maxmem: %w", err)
		}
		fleetLimit = limit
	}
	cacheBytes, err := memacct.ParseBytes(*cacheSize)
	if err != nil {
		return fmt.Errorf("--result-cache: %w", err)
	}
	var inflightBytes int64
	if *maxInflight != "" {
		if inflightBytes, err = memacct.ParseBytes(*maxInflight); err != nil {
			return fmt.Errorf("--max-inflight: %w", err)
		}
	}

	// Resolve the catalog: a file, or a single in-memory entry from the
	// single-tree reference flags.
	src, err := refFlags.Source()
	if err != nil {
		return err
	}
	var cat *catalog
	if *catalogFlag != "" {
		if src.Tree != "" || src.DB != "" {
			return fmt.Errorf("--catalog and --tree/--db are mutually exclusive")
		}
		cat, err = loadCatalogFile(*catalogFlag, defaultMaxMem)
		if err != nil {
			return err
		}
	} else {
		if src.DB == "" && src.Tree == "" {
			return fmt.Errorf("--tree, --db, or --catalog is required")
		}
		if err := src.Validate(); err != nil {
			return err
		}
		cat = &catalog{}
		if err := cat.add(&catalogEntry{id: "default", maxMem: defaultMaxMem, load: src.Load}); err != nil {
			return err
		}
	}

	f := newFleet(cat, fleetOptions{
		MaxMem:        fleetLimit,
		BaseConfig:    cfg,
		CacheBytes:    cacheBytes,
		InflightBytes: inflightBytes,
		MaxBatch:      *maxBatch,
		MaxLatency:    *maxLatency,
	})
	srv := newServer(f, serverOptions{RequestTimeout: *reqTimeout})

	// Single-tree catalogs keep the old warm-at-startup contract; multi-tree
	// fleets build lazily so unused trees never pay their footprint.
	if id := cat.defaultID(); id != "" {
		t, err := f.get(id)
		if err != nil {
			return err
		}
		f.release(t)
		plan := t.eng.Plan()
		fmt.Fprintf(stdout, "placed: tree %q warm (model %s; AMC=%v slots=%d planned=%s)\n",
			id, t.spec, plan.AMC, plan.Slots, memacct.FormatBytes(plan.TotalBytes))
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		if cerr := f.close(); cerr != nil {
			return errors.Join(err, cerr)
		}
		return err
	}
	hs := newHTTPServer(srv.handler(), defaultHTTPTimeouts)
	budget := "unlimited"
	if fleetLimit > 0 {
		budget = memacct.FormatBytes(fleetLimit)
	}
	fmt.Fprintf(stdout, "placed: serving %d tree(s) on %s (global budget %s)\n",
		len(cat.order), ln.Addr(), budget)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var runErr error
	select {
	case err := <-serveErr:
		// Listener failure: nothing to drain, just audit the fleet.
		runErr = err
	case <-ctx.Done():
		fmt.Fprintln(stdout, "placed: draining")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		if err := srv.shutdown(drainCtx, hs); err != nil {
			runErr = fmt.Errorf("drain: %w", err)
		}
		cancel()
	}

	// The stats document is cut before the fleet is torn down (a closed
	// engine has no report), then the end-of-run audits run: every engine's
	// slot-map invariants and child accountant drain, then the fleet-level
	// accountant drain. An audit failure never masks the run's own error.
	if *statsJSON != "" {
		if err := telemetry.WriteJSONFile(*statsJSON, srv.metrics()); err != nil && runErr == nil {
			runErr = err
		}
	}
	var requests, rejected, queries uint64
	for _, t := range f.snapshotTenants() {
		sv := t.tel.ServerGroup()
		requests += sv.Requests.Load()
		rejected += sv.Rejected.Load()
		queries += sv.QueriesReceived.Load()
	}
	fsnap := f.ftel.Snapshot()
	if cerr := f.close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return runErr
	}
	fmt.Fprintf(stdout, "placed: drained; served %d requests (%d rejected), %d queries\n",
		requests, rejected, queries)
	fmt.Fprintf(stdout, "placed: fleet built %d engines, shrunk %d, demoted %d, evicted %d (%s reclaimed), %d builds refused\n",
		fsnap.EnginesBuilt, fsnap.EnginesShrunk, fsnap.EnginesDemoted, fsnap.EnginesEvicted,
		memacct.FormatBytes(int64(fsnap.BytesReclaimed)), fsnap.BuildRejected)
	return nil
}

// httpTimeouts bound how long a client may hold a connection without making
// progress, so slow or stalled clients (slowloris) cannot pin connections
// and their goroutines indefinitely.
type httpTimeouts struct {
	readHeader time.Duration // request line and headers
	read       time.Duration // the request line, headers and body
	idle       time.Duration // a keep-alive connection between requests
}

// defaultHTTPTimeouts allow a large query upload on a slow link while still
// dropping a stalled header within seconds. The read timeout bounds the
// upload only: net/http clears the read deadline once the handler has read
// the body, so a request waiting on its batch keeps a live context for its
// whole --request-timeout, however long that is. The idle timeout stays at
// two minutes so keep-alive clients pacing requests are unaffected. There is
// no write timeout: a response is only written once placement finishes, and
// the per-request timeout already bounds that.
var defaultHTTPTimeouts = httpTimeouts{
	readHeader: 10 * time.Second,
	read:       2 * time.Minute,
	idle:       2 * time.Minute,
}

// newHTTPServer returns the server placed listens with.
func newHTTPServer(h http.Handler, t httpTimeouts) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		IdleTimeout:       t.idle,
	}
}
