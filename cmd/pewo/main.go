// Command pewo is the experiment driver (the PEWO-framework equivalent): it
// regenerates every table and figure of the paper's evaluation section on
// synthesized datasets, at a configurable scale.
//
// Usage:
//
//	pewo --scale 16 fig3            # one experiment
//	pewo --scale 16 --reps 5 all    # the full evaluation section
//	pewo --list                     # available experiments
//	pewo --csv fig4 > fig4.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"phylomem/internal/experiments"
	"phylomem/internal/placement"
	"phylomem/internal/prof"
	"phylomem/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pewo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pewo", flag.ContinueOnError)
	// Threads and memory are swept per experiment, so pewo offers neither
	// --threads nor --maxmem from the engine flags.
	engFlags := placement.BindFlags(fs, "no-pipeline", "dedup", "tile-queries", "tile-branches",
		"scoring", "edpl", "clv-spill", "clv-spill-path", "clv-spill-policy")
	var (
		scale     = fs.Int("scale", 16, "divide the paper's dataset dimensions by this factor (1 = full size; needs tens of GiB)")
		reps      = fs.Int("reps", 5, "repetitions per configuration (the paper uses 5)")
		seed      = fs.Int64("seed", 2021, "dataset synthesis seed")
		threads   = fs.String("threads", "1,2,4,8,16,32", "thread sweep for fig6/fig7")
		datasets  = fs.String("datasets", "", "comma-separated dataset subset (default all)")
		maxq      = fs.Int("max-queries", 0, "truncate query sets (0 = all)")
		csv       = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		statsJSON = fs.String("stats-json", "", "write every measured run as a structured JSON document to this file")
		plot      = fs.Bool("plot", false, "also render figure experiments as terminal plots")
		list      = fs.Bool("list", false, "list available experiments")
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
			fmt.Fprintln(os.Stderr, "pewo:", perr)
		}
	}()
	if *list {
		for _, name := range experiments.ExperimentNames() {
			fmt.Println(name)
		}
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one experiment name (or 'all'); see --list")
	}

	o := experiments.DefaultOptions(*scale)
	o.Reps = *reps
	o.Seed = *seed
	o.MaxQueries = *maxq
	if o.Engine, err = engFlags.Config(); err != nil {
		return err
	}
	if *datasets != "" {
		o.Datasets = strings.Split(*datasets, ",")
	}
	var sweep []int
	for _, tok := range strings.Split(*threads, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return fmt.Errorf("invalid thread count %q", tok)
		}
		sweep = append(sweep, v)
	}
	o.Threads = sweep

	if *statsJSON != "" {
		experiments.EnableRecorder()
		defer experiments.DisableRecorder()
	}

	names := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		names = experiments.ExperimentNames()
	}
	for _, name := range names {
		tab, err := experiments.ByName(name, o)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab.String())
		}
		if *plot {
			if rendered, ok := experiments.PlotFor(name, tab); ok {
				fmt.Println(rendered)
			}
		}
	}
	if *statsJSON != "" {
		if err := telemetry.WriteJSONFile(*statsJSON, experiments.RecorderDoc()); err != nil {
			return err
		}
	}
	return nil
}
