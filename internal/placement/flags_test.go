package placement

import (
	"flag"
	"strings"
	"testing"

	"phylomem/internal/core"
)

// engineFlagNames is every flag the binder declares.
var engineFlagNames = []string{
	"maxmem", "chunk-size", "block-size", "threads", "no-heur",
	"tile-queries", "tile-branches", "dedup", "no-pipeline", "scoring", "edpl",
	"bayes-pendant-nodes", "bayes-proximal-nodes", "memsave-strategy",
	"clv-spill", "clv-spill-path", "clv-spill-policy",
}

// parseEngineFlags binds names, parses args and returns the resulting Config.
func parseEngineFlags(t *testing.T, names []string, args ...string) (Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(fs, names...)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f.Config()
}

// TestFlagsDefaultConfig: with no arguments the binder yields exactly
// DefaultConfig, whichever subset a command offers. (placed then sets EDPL
// from --scoring — bayes implies EDPL — which leaves the default unchanged
// because the default scoring mode is ml.)
func TestFlagsDefaultConfig(t *testing.T) {
	for _, names := range [][]string{engineFlagNames, {"scoring", "dedup"}, nil} {
		got, err := parseEngineFlags(t, names)
		if err != nil {
			t.Fatal(err)
		}
		if got != DefaultConfig() {
			t.Errorf("flags %v with no arguments: %+v, want DefaultConfig %+v", names, got, DefaultConfig())
		}
	}
}

// TestFlagsSetConfigFields maps each engine flag to the Config field it sets.
func TestFlagsSetConfigFields(t *testing.T) {
	cases := []struct {
		args []string
		want func(*Config)
	}{
		{[]string{"--maxmem", "2M"}, func(c *Config) { c.MaxMem = 2 << 20 }},
		{[]string{"--chunk-size", "40"}, func(c *Config) { c.ChunkSize = 40 }},
		{[]string{"--block-size", "16"}, func(c *Config) { c.BlockSize = 16 }},
		{[]string{"--threads", "4"}, func(c *Config) { c.Threads = 4 }},
		{[]string{"--no-heur"}, func(c *Config) { c.DisableLookup = true }},
		{[]string{"--tile-queries", "8"}, func(c *Config) { c.TileQueries = 8 }},
		{[]string{"--tile-branches", "3"}, func(c *Config) { c.TileBranches = 3 }},
		{[]string{"--dedup=false"}, func(c *Config) { c.NoDedup = true }},
		{[]string{"--no-pipeline"}, func(c *Config) { c.NoPipeline = true }},
		{[]string{"--scoring", "bayes"}, func(c *Config) { c.Scoring = ScoringBayes }},
		{[]string{"--edpl"}, func(c *Config) { c.EDPL = true }},
		{[]string{"--bayes-pendant-nodes", "5"}, func(c *Config) { c.BayesPendantNodes = 5 }},
		{[]string{"--bayes-proximal-nodes", "2"}, func(c *Config) { c.BayesProximalNodes = 2 }},
		{[]string{"--memsave-strategy", "lru"}, func(c *Config) { c.Strategy = core.LRU{} }},
		{[]string{"--clv-spill"}, func(c *Config) { c.SpillPolicy = core.HybridSpill{} }},
		{[]string{"--clv-spill", "--clv-spill-path", "s.bin"}, func(c *Config) {
			c.SpillPolicy, c.SpillPath = core.HybridSpill{}, "s.bin"
		}},
		// The spill path alone leaves the tier off.
		{[]string{"--clv-spill-path", "s.bin"}, func(*Config) {}},
		// A policy implies --clv-spill.
		{[]string{"--clv-spill-policy", "spill"}, func(c *Config) { c.SpillPolicy = core.SpillOnly{} }},
	}
	for _, tc := range cases {
		got, err := parseEngineFlags(t, engineFlagNames, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		want := DefaultConfig()
		tc.want(&want)
		if got != want {
			t.Errorf("%v:\n got %+v\nwant %+v", tc.args, got, want)
		}
	}
}

// TestFlagsRejectUnknownValues: an unknown mode, strategy or policy is a
// usage error naming the bad value, and a malformed size is rejected.
func TestFlagsRejectUnknownValues(t *testing.T) {
	for _, args := range [][]string{
		{"--scoring", "bogus"},
		{"--memsave-strategy", "bogus"},
		{"--clv-spill-policy", "bogus"},
		{"--maxmem", "bogus"},
	} {
		_, err := parseEngineFlags(t, engineFlagNames, args...)
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("%v: error %v, want one naming the bad value", args, err)
		}
	}
}

// TestFlagsOfferOnlyNamed: a command sees only the flags it offers, and
// naming a flag the binder does not declare is a programming error.
func TestFlagsOfferOnlyNamed(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindFlags(fs, "threads")
	if fs.Lookup("threads") == nil || fs.Lookup("maxmem") != nil {
		t.Fatal("BindFlags must declare exactly the offered flags")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown engine flag name accepted")
		}
	}()
	BindFlags(flag.NewFlagSet("test", flag.ContinueOnError), "fast-math")
}
