package placement

import (
	"bytes"
	"context"
	"math/bits"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/telemetry"
)

// renderStream places the fixture's queries under cfg and serializes the
// jplace document — the byte-level artifact every determinism test compares.
func renderStream(t *testing.T, fx *fixture, cfg Config) []byte {
	t.Helper()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var placed []jplace.Placements
	if _, err := eng.PlaceStream(context.Background(), NewSliceSource(fx.queries), func(p jplace.Placements) error {
		placed = append(placed, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	doc := &jplace.Document{Tree: jplace.TreeString(fx.tr), Queries: placed, Invocation: "test"}
	if err := jplace.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTileByteIdentity: placement output must be byte-identical across tile
// sizes (including the degenerate per-query shape), thread counts, AMC
// on/off, and the lookup-less fallback path — the tiled kernels replicate
// the per-cell FP order exactly.
func TestTileByteIdentity(t *testing.T) {
	fx := newFixture(t, 47, 16, 120, 21)
	base := testConfig()
	base.ChunkSize = 6
	// Size the limit for the matrix's widest pool: every worker's prescore
	// row is planned memory.
	wide := base
	wide.Threads = 8
	amcMem := tightMaxMem(t, fx, wide, true)

	ref := renderStream(t, fx, base) // auto tile sizes, full memory
	for _, tile := range []int{1, 3, 64} {
		for _, threads := range []int{1, 8} {
			for _, amc := range []bool{false, true} {
				for _, noLookup := range []bool{false, true} {
					cfg := base
					cfg.TileQueries = tile
					cfg.TileBranches = tile
					cfg.Threads = threads
					cfg.DisableLookup = noLookup
					if amc {
						cfg.MaxMem = amcMem
					}
					out := renderStream(t, fx, cfg)
					if !bytes.Equal(out, ref) {
						t.Fatalf("output differs at tile=%d threads=%d amc=%v noLookup=%v",
							tile, threads, amc, noLookup)
					}
				}
			}
		}
	}
}

// TestKernelTelemetryPopulated: a tiled run must report its tile dimensions
// and activity through the kernel telemetry group.
func TestKernelTelemetryPopulated(t *testing.T) {
	fx := newFixture(t, 59, 12, 80, 9)
	cfg := testConfig()
	cfg.ChunkSize = 4
	cfg.TileQueries = 3
	cfg.TileBranches = 5
	cfg.Telemetry = telemetry.NewSink()
	rep, _ := placeWithSink(t, fx, cfg)
	k := rep.Telemetry.Kernel
	if k.TileQueries != 3 || k.TileBranches != 5 {
		t.Fatalf("tile dims not reported: %+v", k)
	}
	if k.TilesExecuted == 0 || k.BlockKernelCalls == 0 || k.BlockResidentBytes == 0 {
		t.Fatalf("kernel activity not reported: %+v", k)
	}
	if k.BlockKernelCalls < k.TilesExecuted {
		t.Fatalf("fewer block calls (%d) than tiles (%d)", k.BlockKernelCalls, k.TilesExecuted)
	}
}

// TestPhase1LogCalls: the log counter is the prescore cells filled — the
// whole lookup table once, or, without it, each (pattern, state) cell a
// query tile touches once per branch — and RunStats and the kernel
// telemetry agree.
func TestPhase1LogCalls(t *testing.T) {
	fx := newFixture(t, 61, 12, 80, 9)
	nb, S := fx.tr.NumBranches(), fx.part.States()
	gap := fx.part.Comp.Alphabet.GapMask()
	// One-query tiles: each query fills its own distinct cells per branch.
	var perQuery uint64
	for _, q := range fx.queries {
		touched := map[int]bool{}
		for site, code := range q.Codes {
			if code == gap {
				continue
			}
			for c := code; c != 0; c &= c - 1 {
				touched[fx.part.Comp.SiteToPattern[site]*S+bits.TrailingZeros32(c)] = true
			}
		}
		perQuery += uint64(len(touched))
	}
	for _, tc := range []struct {
		name   string
		lookup bool
		want   uint64
	}{
		{"lookup", true, uint64(nb * fx.part.PrescoreRowLen())},
		{"lazy", false, uint64(nb) * perQuery},
	} {
		cfg := testConfig()
		cfg.DisableLookup = !tc.lookup
		cfg.TileQueries = 1
		cfg.Telemetry = telemetry.NewSink()
		rep, _ := placeWithSink(t, fx, cfg)
		if got := rep.RunStats.Phase1LogCalls; got != tc.want {
			t.Fatalf("%s: %d log calls, want %d", tc.name, got, tc.want)
		}
		if got := rep.Telemetry.Kernel.LogCalls; got != tc.want {
			t.Fatalf("%s: kernel telemetry counts %d log calls, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPrescoreBlockTileAllocFree: once warm, a block-path phase-1 tile —
// query block fill, a lazy row per branch, scoring and scatter — allocates
// nothing.
func TestPrescoreBlockTileAllocFree(t *testing.T) {
	fx := newFixture(t, 63, 12, 80, 9)
	cfg := testConfig()
	cfg.DisableLookup = true
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	blk := eng.blockBuf(0)
	eng.fillBlock(blk, eng.branchOrder[:eng.plan.BlockSize])
	if blk.err != nil {
		t.Fatal(blk.err)
	}
	scores := make([]float64, len(fx.queries)*fx.tr.NumBranches())
	run := func() { eng.prescoreBlockTile(blk, fx.queries, 0, len(fx.queries), 0, scores) }
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("block-path tile allocated %v per run, want 0", allocs)
	}
}
