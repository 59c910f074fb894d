// Serratus-style run: a wide amino-acid alignment (Coronaviridae RdRP-like)
// with few full-length queries, demonstrating 20-state placement and the
// across-site parallel precompute that wide alignments reward (the paper's
// Fig. 7 finding).
//
//	go run ./examples/serratus
package main

import (
	"fmt"
	"log"
	"time"

	"phylomem/internal/experiments"
	"phylomem/internal/placement"
	"phylomem/internal/workload"
)

func main() {
	ds, err := workload.Serratus(24, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d leaves, %d AA sites, %d queries\n\n",
		ds.Name, ds.Tree.NumLeaves(), ds.RefMSA.Width(), len(ds.Queries))

	prep, err := experiments.Prepare(ds)
	if err != nil {
		log.Fatal(err)
	}

	base := placement.DefaultConfig()
	base.ChunkSize = 64

	// Asynchronous precompute (the shipped parallelization) versus the
	// experimental synchronous across-site scheme.
	for _, mode := range []struct {
		name string
		mut  func(*placement.Config)
	}{
		{"async precompute, 4 workers", func(c *placement.Config) { c.Threads = 4 }},
		{"across-site sync precompute, 4 workers", func(c *placement.Config) {
			c.Threads = 4
			c.SyncPrecompute = true
			c.SiteWorkers = 4
		}},
	} {
		cfg := base
		mode.mut(&cfg)
		cfg.MaxMem = prep.MinFeasibleBytes(cfg) // fullest memory saving for this worker count
		start := time.Now()
		eng, err := placement.New(prep.Part, prep.Tree, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Place(prep.Queries)
		if err != nil {
			log.Fatal(err)
		}
		st := eng.Stats()
		fmt.Printf("%-40s %8v  (threads used: %d, recomputes: %d)\n",
			mode.name, time.Since(start).Round(time.Millisecond), st.ThreadsUsed, st.CLVStats.Recomputes)
		if len(res.Queries) != len(prep.Queries) {
			log.Fatalf("lost queries: %d != %d", len(res.Queries), len(prep.Queries))
		}
	}

	fmt.Println("\nWide alignments are the favourable case for across-site parallelism;")
	fmt.Println("on narrow alignments the paper found it can even be detrimental.")
}
