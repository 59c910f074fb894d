// Command epang is the EPA-NG-equivalent placement tool: it places aligned
// query sequences on a reference tree by maximum likelihood and writes a
// jplace result, with the paper's memory-saving machinery behind --maxmem.
//
// Usage:
//
//	epang --tree ref.nwk --ref-msa ref.fasta --query q.fasta --out result.jplace
//	epang ... --maxmem 4G --chunk-size 500 --threads 8
//	epang ... --model GTR+G4{0.5}      # substitution model spec
//	epang ... --split combined.fasta   # combined ref+query alignment
//	epang ... --fit                    # ML-fit branch lengths & model first
//	epang ... --no-heur                # disable the pre-placement lookup table
//	epang ... --memsave-strategy lru   # CLV replacement strategy
//	epang ... --scoring bayes --edpl   # posterior probabilities + placement uncertainty
//	epang ... --strict                 # abort on malformed queries instead of skipping
//
// Exit codes: 0 success, 1 input or usage error, 2 internal invariant
// violation (a bug, not bad input), 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phylomem/internal/core"
	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/mlfit"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/prof"
	"phylomem/internal/refdb"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
	"phylomem/internal/tree"
)

func main() {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "epang:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode separates failure classes for scripting: 1 is an input or usage
// error, 2 an internal invariant violation (slot-map corruption, accounting
// leak or overcommit — a bug, not bad input), 130 an interrupt (the shell
// convention for SIGINT).
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
	fs := flag.NewFlagSet("epang", flag.ContinueOnError)
	refFlags := refdb.BindFlags(fs)
	engFlags := placement.BindFlags(fs, "maxmem", "chunk-size", "block-size", "threads", "no-heur",
		"tile-queries", "tile-branches", "dedup", "no-pipeline", "scoring", "edpl",
		"bayes-pendant-nodes", "bayes-proximal-nodes", "memsave-strategy",
		"clv-spill", "clv-spill-path", "clv-spill-policy")
	var (
		saveDB    = fs.String("save-db", "", "after loading the reference, save it as a refdb file for reuse")
		queryFile = fs.String("query", "", "aligned query sequences (FASTA)")
		splitFile = fs.String("split", "", "combined ref+query alignment to split by the tree's taxa (replaces --ref-msa/--query)")
		outFile   = fs.String("out", "epa_result.jplace", "output jplace path")
		fit       = fs.Bool("fit", false, "ML-optimize branch lengths (and Gamma alpha for NT: exchangeabilities too) before placement")
		nmOut     = fs.Bool("nm", false, "write jplace nm multiplicity entries: queries sharing identical placements collapse into one record carrying every name with its multiplicity")
		strict    = fs.Bool("strict", false, "abort on malformed query sequences instead of skipping them")
		syncPre   = fs.Bool("sync-precompute", false, "synchronous across-site branch-block precompute (experimental)")
		showStats = fs.Bool("stats", false, "print pipeline and worker-pool statistics")
		statsJSON = fs.String("stats-json", "", "write a structured JSON run report (plan, memory, telemetry) to this file")
		traceFile = fs.String("trace", "", "write newline-JSON per-chunk trace events to this file")
		verbose   = fs.Bool("verbose", false, "print plan and statistics")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "epang:", perr)
		}
	}()
	cfg, err := engFlags.Config()
	if err != nil {
		return err
	}
	cfg.SyncPrecompute = *syncPre
	if *syncPre {
		cfg.SiteWorkers = cfg.Threads
	}
	cfg.Strict = *strict
	refSrc, err := refFlags.Source("split", "fit")
	if err != nil {
		return err
	}
	if *splitFile == "" && *queryFile == "" {
		return fmt.Errorf("--query (or --split) is required")
	}

	// --split reads the reference rows of a combined alignment through the
	// loader and keeps the remaining rows as the queries.
	var splitQueries []seq.Sequence
	if *splitFile != "" {
		refSrc.Refs = func(tr *tree.Tree, alphabet *seq.Alphabet) ([]seq.Sequence, error) {
			f, err := os.Open(*splitFile)
			if err != nil {
				return nil, err
			}
			all, err := seq.ReadFasta(f)
			f.Close()
			if err != nil {
				return nil, err
			}
			combined, err := seq.NewMSA(alphabet, all)
			if err != nil {
				return nil, err
			}
			names := make([]string, 0, tr.NumLeaves())
			for _, leaf := range tr.Leaves() {
				names = append(names, leaf.Name)
			}
			refSeqs, queries, err := seq.SplitMSA(combined, names)
			splitQueries = queries
			return refSeqs, err
		}
	}
	ref, err := refSrc.Load()
	if err != nil {
		return err
	}
	tr, msa, alphabet := ref.Tree, ref.MSA, ref.Alphabet

	// Optional ML fitting of branch lengths / model parameters.
	if *fit {
		opts := mlfit.Options{BranchLengths: true, Alpha: ref.Rates.NumRates() > 1, Exchangeabilities: alphabet == seq.DNA}
		res, err := mlfit.Fit(tr, msa, nil, 1.0, ref.Rates.NumRates(), opts)
		if err != nil {
			return fmt.Errorf("model fitting: %w", err)
		}
		ref.Model, ref.Rates = res.Model, res.Rates
		if *verbose {
			fmt.Fprintf(stdout, "fit: logL %.3f -> %.3f (alpha %.3f, %d evaluations)\n",
				res.StartLL, res.LogLik, res.Alpha, res.Evaluations)
		}
	}

	if *saveDB != "" {
		f, err := os.Create(*saveDB)
		if err != nil {
			return err
		}
		if err := refdb.Save(f, tr, msa, ref.Spec, ref.Freqs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved reference database -> %s\n", *saveDB)
	}

	comp, err := seq.Compress(msa)
	if err != nil {
		return err
	}
	part, err := phylo.NewPartition(ref.Model, ref.Rates, comp, tr)
	if err != nil {
		return err
	}

	if *statsJSON != "" {
		cfg.Telemetry = telemetry.NewSink()
	}
	var trace *telemetry.Trace
	if *traceFile != "" {
		tf, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		trace = telemetry.NewTrace(tf)
		cfg.Trace = trace
		trace.Emit(telemetry.Event{Ev: "run_start", Detail: "epang " + strings.Join(args, " ")})
	}

	eng, err := placement.NewContext(ctx, part, tr, cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	if *verbose {
		plan := eng.Plan()
		fmt.Fprintf(stdout, "model: %s; mode: AMC=%v lookup=%v slots=%d block=%d planned=%s\n",
			ref.Spec, plan.AMC, plan.LookupEnabled, plan.Slots, plan.BlockSize, memacct.FormatBytes(plan.TotalBytes))
	}

	// Queries: streamed from disk chunk by chunk, or taken from the split.
	var src placement.QuerySource
	var qfile *os.File
	if *splitFile != "" {
		var queries []placement.Query
		if *strict {
			queries, err = placement.EncodeQueries(alphabet, splitQueries, msa.Width())
			if err != nil {
				return err
			}
		} else {
			var qerrs []*placement.QueryError
			queries, qerrs = placement.EncodeQueriesLenient(alphabet, splitQueries, msa.Width())
			for _, qe := range qerrs {
				fmt.Fprintln(os.Stderr, "epang: skipping:", qe)
			}
		}
		src = placement.NewSliceSource(queries)
	} else {
		qfile, err = os.Open(*queryFile)
		if err != nil {
			return err
		}
		defer qfile.Close()
		src = placement.NewFastaSource(seq.NewFastaScanner(qfile), alphabet, msa.Width())
	}

	var placed []jplace.Placements
	n, runErr := eng.PlaceStream(ctx, src, func(p jplace.Placements) error {
		placed = append(placed, p)
		return nil
	})

	// Even an interrupted or failed run writes what it has: the partial
	// result is still a well-formed jplace document.
	if runErr == nil || len(placed) > 0 {
		out, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		outQueries := placed
		if *nmOut {
			outQueries = jplace.GroupByPlacement(placed)
		}
		doc := &jplace.Document{
			Tree:       jplace.TreeString(tr),
			Queries:    outQueries,
			Invocation: "epang " + strings.Join(args, " "),
		}
		if cfg.Scoring == placement.ScoringBayes {
			doc.Fields = jplace.FieldsBayes
		}
		if err := jplace.Write(out, doc); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
	}

	st := eng.Stats()

	// The structured report and trace are written on every exit path — a
	// failed or interrupted run's partial counters are exactly what an
	// investigation needs. Report() must run before Close releases the
	// persistent accounting categories.
	if *statsJSON != "" {
		if werr := telemetry.WriteJSONFile(*statsJSON, eng.Report()); werr != nil && runErr == nil {
			runErr = werr
		}
	}
	if trace != nil {
		trace.Emit(telemetry.Event{Ev: "run_end", Queries: n})
		if terr := trace.Close(); terr != nil && runErr == nil {
			runErr = terr
		}
	}

	// End-of-run audit: Close re-checks the slot-map invariants and asserts
	// the accountant drained to zero. An audit failure on a clean run is an
	// internal error (exit 2); it never masks the run's own error.
	if cerr := eng.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		if len(placed) > 0 {
			fmt.Fprintf(os.Stderr, "epang: wrote %d partial placements to %s\n", len(placed), *outFile)
		}
		return runErr
	}

	fmt.Fprintf(stdout, "placed %d queries on %d branches -> %s\n", n, tr.NumBranches(), *outFile)
	if st.QueriesSkipped > 0 {
		fmt.Fprintf(stdout, "skipped %d malformed queries (use --strict to abort instead)\n", st.QueriesSkipped)
	}
	if *verbose {
		fmt.Fprintf(stdout, "phase1 %v, phase2 %v, precompute %v, lookup build %v\n",
			st.Phase1, st.Phase2, st.Precompute, st.LookupBuild)
		fmt.Fprintf(stdout, "CLV recomputes %d, hits %d, evictions %d\n",
			st.CLVStats.Recomputes, st.CLVStats.Hits, st.CLVStats.Evictions)
		fmt.Fprintf(stdout, "memory: %s\n", eng.Accountant())
	}
	if *showStats || *verbose {
		mode := "pipelined"
		if !st.Pipelined {
			mode = "synchronous"
		}
		if st.QueriesDistinct > 0 {
			fmt.Fprintf(stdout, "dedup: %d distinct of %d queries (%d folded)\n",
				st.QueriesDistinct, st.QueriesDistinct+st.QueriesDeduped, st.QueriesDeduped)
		}
		fmt.Fprintf(stdout, "chunks: %d processed (%s); read %v, wait %v\n",
			st.ChunksProcessed, mode, st.ChunkRead.Round(time.Microsecond), st.ChunkWait.Round(time.Microsecond))
		fmt.Fprintf(stdout, "pool: %d workers, busy %v over %v wall (utilization %.0f%%)\n",
			st.ThreadsUsed, st.PoolBusy.Round(time.Microsecond), st.PlaceWall.Round(time.Microsecond),
			100*st.PoolUtilization())
		fmt.Fprintf(stdout, "lookup build: %v at %d workers\n",
			st.LookupBuild.Round(time.Microsecond), st.LookupWorkers)
	}
	return nil
}
