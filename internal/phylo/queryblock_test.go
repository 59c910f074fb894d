package phylo

import "testing"

// blockFixture builds a prescore row, a branch CLV, and a set of random
// queries (some gappy) on the shared placement fixture.
type blockFixture struct {
	fx      *placementFixture
	row     []float64
	bclv    []float64
	bscale  []int32
	ppend   []float64
	queries [][]uint32
}

func newBlockFixture(t *testing.T, seed int64, nq int) *blockFixture {
	t.Helper()
	fx := newFixture(t, seed, 9, 70)
	ppend := make([]float64, fx.p.PLen())
	fx.p.FillP(ppend, 0.07)
	e := fx.tr.Edges[3]
	bclv, bscale := fx.insertionCLV(e)
	row := make([]float64, fx.p.PrescoreRowLen())
	fx.p.BuildPrescoreRow(row, bclv, ppend)
	queries := make([][]uint32, nq)
	for i := range queries {
		queries[i] = fx.randomQuery(fx.p.Comp.OriginalWidth(), 0.25)
	}
	return &blockFixture{fx: fx, row: row, bclv: bclv, bscale: bscale, ppend: ppend, queries: queries}
}

// TestPrescoreQueryBlockBitIdentical: the block kernel must reproduce the
// per-query kernel bit for bit, for any block size and both gap modes.
func TestPrescoreQueryBlockBitIdentical(t *testing.T) {
	bf := newBlockFixture(t, 101, 17)
	p := bf.fx.p
	for _, skipGaps := range []bool{true, false} {
		for _, nq := range []int{1, 2, 5, 17} {
			qs := bf.queries[:nq]
			block := make([]uint32, p.QueryBlockLen(nq))
			p.FillQueryBlock(block, qs)
			out := make([]float64, nq)
			p.PrescoreQueryBlock(bf.row, bf.bscale, block, nq, skipGaps, out)
			for q := 0; q < nq; q++ {
				want := p.PrescoreQuery(bf.row, bf.bscale, qs[q], skipGaps)
				if out[q] != want {
					t.Fatalf("skipGaps=%v nq=%d q=%d: block %v != per-query %v (diff %g)",
						skipGaps, nq, q, out[q], want, out[q]-want)
				}
			}
		}
	}
}

// TestQueryLogLikBlockBitIdentical: same invariant for the non-lookup path.
func TestQueryLogLikBlockBitIdentical(t *testing.T) {
	bf := newBlockFixture(t, 103, 11)
	p := bf.fx.p
	sc := p.NewScratch()
	scRef := p.NewScratch()
	for _, skipGaps := range []bool{true, false} {
		for _, nq := range []int{1, 3, 11} {
			qs := bf.queries[:nq]
			block := make([]uint32, p.QueryBlockLen(nq))
			p.FillQueryBlock(block, qs)
			out := make([]float64, nq)
			p.QueryLogLikBlockScratch(bf.bclv, bf.bscale, block, nq, bf.ppend, skipGaps, sc, out)
			for q := 0; q < nq; q++ {
				want := p.QueryLogLikScratch(bf.bclv, bf.bscale, qs[q], bf.ppend, skipGaps, scRef)
				if out[q] != want {
					t.Fatalf("skipGaps=%v nq=%d q=%d: block %v != per-query %v (diff %g)",
						skipGaps, nq, q, out[q], want, out[q]-want)
				}
			}
		}
	}
}

// TestFillQueryBlockLayout pins the site-major SoA layout.
func TestFillQueryBlockLayout(t *testing.T) {
	bf := newBlockFixture(t, 109, 3)
	p := bf.fx.p
	nq := 3
	block := make([]uint32, p.QueryBlockLen(nq))
	p.FillQueryBlock(block, bf.queries[:nq])
	width := p.Comp.OriginalWidth()
	for q := 0; q < nq; q++ {
		for site := 0; site < width; site++ {
			if block[site*nq+q] != bf.queries[q][site] {
				t.Fatalf("layout mismatch at site=%d q=%d", site, q)
			}
		}
	}
}

func BenchmarkPrescoreQueryBlock(b *testing.B) {
	bf := newBlockFixtureB(b)
	p := bf.fx.p
	nq := len(bf.queries)
	block := make([]uint32, p.QueryBlockLen(nq))
	p.FillQueryBlock(block, bf.queries)
	out := make([]float64, nq)
	b.Run("per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range bf.queries {
				p.PrescoreQuery(bf.row, bf.bscale, q, true)
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.PrescoreQueryBlock(bf.row, bf.bscale, block, nq, true, out)
		}
	})
}

func newBlockFixtureB(b *testing.B) *blockFixture {
	b.Helper()
	var t testing.T
	bf := newBlockFixture(&t, 111, 32)
	if t.Failed() {
		b.Fatal("fixture construction failed")
	}
	return bf
}
