package placement

import (
	"flag"
	"fmt"

	"phylomem/internal/core"
	"phylomem/internal/memacct"
)

// Flags is the engine-flag surface epang, placed and pewo share. Every
// engine flag is declared here once, with one name, one default and one help
// text; a command offers the subset it names to BindFlags, and Config turns
// the parsed values into a validated Config. Flags a command does not offer
// keep their DefaultConfig values.
type Flags struct {
	cfg         Config
	maxmem      string
	dedup       bool
	scoring     string
	strategy    string
	spill       bool
	spillPath   string
	spillPolicy string
}

// BindFlags declares the named engine flags on dst. Naming a flag that does
// not exist is a programming error and panics.
func BindFlags(dst *flag.FlagSet, names ...string) *Flags {
	f := &Flags{cfg: DefaultConfig()}
	all := f.declare()
	for _, name := range names {
		fl := all.Lookup(name)
		if fl == nil {
			panic("placement: no engine flag --" + name)
		}
		dst.Var(fl.Value, fl.Name, fl.Usage)
	}
	return f
}

// declare declares every engine flag, bound to f, on a private flag set.
func (f *Flags) declare() *flag.FlagSet {
	c := &f.cfg
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	fs.StringVar(&f.maxmem, "maxmem", "", "memory ceiling per engine, e.g. 4G or 512M (empty = unlimited)")
	fs.IntVar(&c.ChunkSize, "chunk-size", c.ChunkSize, "queries per chunk")
	fs.IntVar(&c.BlockSize, "block-size", c.BlockSize, "branches per precompute block")
	fs.IntVar(&c.Threads, "threads", c.Threads, "placement worker threads per engine")
	fs.BoolVar(&c.DisableLookup, "no-heur", c.DisableLookup, "disable the pre-placement lookup table heuristic")
	fs.IntVar(&c.TileQueries, "tile-queries", c.TileQueries, "phase-1 query-tile size (0 = auto from the cache-size estimate)")
	fs.IntVar(&c.TileBranches, "tile-branches", c.TileBranches, "phase-1 branch-tile size (0 = auto: the precompute block size)")
	fs.BoolVar(&f.dedup, "dedup", !c.NoDedup, "place one representative per distinct query sequence and fan the result out to duplicates (output is identical either way)")
	fs.BoolVar(&c.NoPipeline, "no-pipeline", c.NoPipeline, "disable overlapped chunk reading (decode chunk N+1 while placing chunk N)")
	fs.StringVar(&f.scoring, "scoring", string(c.Scoring), "scoring mode: ml (optimized likelihoods) or bayes (posterior probabilities via branch-length integration)")
	fs.BoolVar(&c.EDPL, "edpl", c.EDPL, "compute each query's expected distance between placement locations and write it to the jplace output")
	fs.IntVar(&c.BayesPendantNodes, "bayes-pendant-nodes", c.BayesPendantNodes, "pendant-length quadrature order for --scoring=bayes (0 = default 8)")
	fs.IntVar(&c.BayesProximalNodes, "bayes-proximal-nodes", c.BayesProximalNodes, "proximal-position quadrature order for --scoring=bayes (0 = default 4)")
	fs.StringVar(&f.strategy, "memsave-strategy", c.Strategy.Name(), "CLV replacement strategy: cost, costage, lru, fifo, random")
	fs.BoolVar(&f.spill, "clv-spill", false, "spill evicted CLVs to a disk tier and reload them instead of recomputing (AMC only; output is byte-identical)")
	fs.StringVar(&f.spillPath, "clv-spill-path", "", "spill store file, used with --clv-spill (empty = temporary file removed on exit; a placed catalog of several trees appends the tree id)")
	fs.StringVar(&f.spillPolicy, "clv-spill-policy", "", "per-victim spill decision: discard, spill, or hybrid (implies --clv-spill; default hybrid)")
	return fs
}

// Config returns the engine configuration the parsed flags select, or a
// usage error for a value no engine accepts.
func (f *Flags) Config() (Config, error) {
	cfg := f.cfg
	cfg.NoDedup = !f.dedup
	if f.maxmem != "" {
		limit, err := memacct.ParseBytes(f.maxmem)
		if err != nil {
			return Config{}, fmt.Errorf("--maxmem: %w", err)
		}
		cfg.MaxMem = limit
	}
	mode, err := ParseScoringMode(f.scoring)
	if err != nil {
		return Config{}, err
	}
	cfg.Scoring = mode
	if cfg.Strategy = core.StrategyByName(f.strategy); cfg.Strategy == nil {
		return Config{}, fmt.Errorf("placement: unknown memsave strategy %q (want cost, costage, lru, fifo, or random)", f.strategy)
	}
	if f.spill || f.spillPolicy != "" {
		name := f.spillPolicy
		if name == "" {
			name = "hybrid"
		}
		if cfg.SpillPolicy = core.SpillPolicyByName(name); cfg.SpillPolicy == nil {
			return Config{}, fmt.Errorf("placement: unknown spill policy %q (want discard, spill, or hybrid)", name)
		}
		cfg.SpillPath = f.spillPath
	}
	return cfg, nil
}
