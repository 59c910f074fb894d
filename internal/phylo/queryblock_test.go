package phylo

import (
	"math"
	"testing"

	"phylomem/internal/model"
	"phylomem/internal/seq"
)

// oracleRow is the linear prescore row, built row-at-once:
// dst[pat·S+s'] = Σ_r f_r Σ_s π_s bclv[pat][r][s] P^r_ss'.
func oracleRow(p *Partition, bclv, ppend []float64) []float64 {
	S, R := p.states, p.nrates
	pi := p.Model.Freqs()
	dst := make([]float64, p.PrescoreRowLen())
	for pat := 0; pat < p.patterns; pat++ {
		out := dst[pat*S : pat*S+S]
		base := pat * R * S
		for r := 0; r < R; r++ {
			bv := bclv[base+r*S : base+r*S+S]
			fr := p.Rates.Weights[r]
			pr := ppend[r*S*S : (r+1)*S*S]
			for s := 0; s < S; s++ {
				w := fr * pi[s] * bv[s]
				if w == 0 {
					continue
				}
				row := pr[s*S : s*S+S]
				for sp := 0; sp < S; sp++ {
					out[sp] += w * row[sp]
				}
			}
		}
	}
	return dst
}

// oraclePrescore scores one query against an oracle row: per site, the log
// of its code's summed linear entries minus the scale penalty.
func oraclePrescore(p *Partition, row []float64, bscale []int32, query []uint32, skipGaps bool) float64 {
	S := p.states
	gap := p.Comp.Alphabet.GapMask()
	total := 0.0
	for site, pat := range p.Comp.SiteToPattern {
		code := query[site]
		if skipGaps && code == gap {
			continue
		}
		sum := 0.0
		for c := code; c != 0; c &= c - 1 {
			sum += row[pat*S+trailingZeros32(c)]
		}
		total += math.Log(sum) - float64(bscale[pat])*logScaleFactor
	}
	return total
}

// prescoreOne scores a single query with the block kernel (a one-query
// site-major block is the query itself).
func prescoreOne(p *Partition, row *PrescoreRow, query []uint32, skipGaps bool) float64 {
	out := make([]float64, 1)
	p.PrescoreQueryBlock(row, query, 1, skipGaps, out)
	return out[0]
}

// prescoreCase is one branch's inputs on a DNA or AA fixture.
type prescoreCase struct {
	fx     *placementFixture
	bclv   []float64
	bscale []int32
	ppend  []float64
	row    []float64 // complete log-space row
	oracle []float64 // linear oracle row
}

func newPrescoreCase(t *testing.T, seed int64, a *seq.Alphabet, m *model.Model, edge int) *prescoreCase {
	t.Helper()
	fx := sumtableFixture(t, seed, a, m)
	pc := &prescoreCase{fx: fx, ppend: make([]float64, fx.p.PLen())}
	fx.p.FillP(pc.ppend, 0.07)
	pc.setEdge(edge)
	return pc
}

func (pc *prescoreCase) setEdge(edge int) {
	p := pc.fx.p
	pc.bclv, pc.bscale = pc.fx.insertionCLV(pc.fx.tr.Edges[edge])
	pc.row = make([]float64, p.PrescoreRowLen())
	p.NewScratch().BuildPrescoreRow(pc.row, pc.bclv, pc.bscale, pc.ppend)
	pc.oracle = oracleRow(p, pc.bclv, pc.ppend)
}

var prescoreAlphabets = []struct {
	name string
	a    *seq.Alphabet
	m    *model.Model
}{
	{"DNA", seq.DNA, model.JC69()},
	{"AA", seq.AA, model.SyntheticAA()},
}

// singleStateQuery draws a query of single-state codes with a share of gaps.
func (fx *placementFixture) singleStateQuery(gapFrac float64) []uint32 {
	q := make([]uint32, fx.p.Comp.OriginalWidth())
	for i := range q {
		if fx.rng.Float64() < gapFrac {
			q[i] = fx.p.Comp.Alphabet.GapMask()
		} else {
			q[i] = 1 << uint(fx.rng.Intn(fx.p.States()))
		}
	}
	return q
}

// TestPrescoreQueryBlockBitIdentical: on single-state codes (gaps skipped)
// the block kernel reproduces the linear-row oracle bit for bit, for any
// block size (one-query tiles included), from a complete row and from a
// lazy row alike, on DNA and AA.
func TestPrescoreQueryBlockBitIdentical(t *testing.T) {
	for _, tc := range prescoreAlphabets {
		pc := newPrescoreCase(t, 101, tc.a, tc.m, 3)
		p := pc.fx.p
		qs := make([][]uint32, 17)
		for i := range qs {
			qs[i] = pc.fx.singleStateQuery(0.25)
		}
		sc := p.NewScratch()
		for _, nq := range []int{1, 2, 5, 17} {
			block := make([]uint32, p.QueryBlockLen(nq))
			p.FillQueryBlock(block, qs[:nq])
			out := make([]float64, nq)
			for _, row := range []*PrescoreRow{{Vals: pc.row}, sc.LazyPrescoreRow(pc.bclv, pc.bscale, pc.ppend)} {
				p.PrescoreQueryBlock(row, block, nq, true, out)
				for q := 0; q < nq; q++ {
					want := oraclePrescore(p, pc.oracle, pc.bscale, qs[q], true)
					if out[q] != want {
						t.Fatalf("%s nq=%d q=%d lazy=%v: block %v != oracle %v (diff %g)",
							tc.name, nq, q, row.bclv != nil, out[q], want, out[q]-want)
					}
				}
			}
		}
	}
}

// TestPrescoreQueryBlockAmbiguity: ambiguity codes (and unskipped gaps) go
// through the log-sum-exp, within 1e-12 relative of the oracle's log of
// summed entries; an all-gap query scores 0 with gaps skipped and fills no
// lazy cell.
func TestPrescoreQueryBlockAmbiguity(t *testing.T) {
	for _, tc := range prescoreAlphabets {
		pc := newPrescoreCase(t, 103, tc.a, tc.m, 2)
		p := pc.fx.p
		sc := p.NewScratch()
		for _, skipGaps := range []bool{true, false} {
			for trial := 0; trial < 8; trial++ {
				q := pc.fx.randomCodes(0.2)
				want := oraclePrescore(p, pc.oracle, pc.bscale, q, skipGaps)
				for _, row := range []*PrescoreRow{{Vals: pc.row}, sc.LazyPrescoreRow(pc.bclv, pc.bscale, pc.ppend)} {
					if got := prescoreOne(p, row, q, skipGaps); !relClose(got, want, 1e-12) {
						t.Fatalf("%s skipGaps=%v trial %d: kernel %v, oracle %v", tc.name, skipGaps, trial, got, want)
					}
				}
			}
		}
		gaps := make([]uint32, p.Comp.OriginalWidth())
		for i := range gaps {
			gaps[i] = p.Comp.Alphabet.GapMask()
		}
		out := make([]float64, 1)
		if n := p.PrescoreQueryBlock(sc.LazyPrescoreRow(pc.bclv, pc.bscale, pc.ppend), gaps, 1, true, out); n != 0 || out[0] != 0 {
			t.Fatalf("%s: all-gap query scored %v filling %d cells, want 0 and 0", tc.name, out[0], n)
		}
		want := oraclePrescore(p, pc.oracle, pc.bscale, gaps, false)
		if got := prescoreOne(p, &PrescoreRow{Vals: pc.row}, gaps, false); !relClose(got, want, 1e-12) {
			t.Fatalf("%s: unskipped all-gap query scored %v, oracle %v", tc.name, got, want)
		}
	}
}

// TestLazyPrescoreRowMatchesLookupRow: on every branch of a random tree, a
// lazy row touched in every cell equals the lookup build's row bit for bit,
// each cell filled exactly once.
func TestLazyPrescoreRowMatchesLookupRow(t *testing.T) {
	for _, tc := range prescoreAlphabets {
		pc := newPrescoreCase(t, 105, tc.a, tc.m, 0)
		p := pc.fx.p
		S := p.States()
		// Query k holds state (k+site) mod S at every site: across the S
		// queries each site visits every state, and repeating the queries
		// revisits every cell.
		qs := make([][]uint32, 2*S)
		for k := range qs {
			qs[k] = make([]uint32, p.Comp.OriginalWidth())
			for site := range qs[k] {
				qs[k][site] = 1 << uint((k+site)%S)
			}
		}
		block := make([]uint32, p.QueryBlockLen(len(qs)))
		p.FillQueryBlock(block, qs)
		out := make([]float64, len(qs))
		sc := p.NewScratch()
		for ei := range pc.fx.tr.Edges {
			pc.setEdge(ei)
			lazy := sc.LazyPrescoreRow(pc.bclv, pc.bscale, pc.ppend)
			if n := p.PrescoreQueryBlock(lazy, block, len(qs), true, out); n != p.PrescoreRowLen() {
				t.Fatalf("%s edge %d: filled %d cells, want %d", tc.name, ei, n, p.PrescoreRowLen())
			}
			for i, v := range lazy.Vals {
				if math.Float64bits(v) != math.Float64bits(pc.row[i]) {
					t.Fatalf("%s edge %d cell %d: lazy %v != lookup %v", tc.name, ei, i, v, pc.row[i])
				}
			}
		}
	}
}

// TestPrescoreQueryBlockAllocFree: once a scratch is warm, resetting its
// lazy row and scoring a block against it allocates nothing.
func TestPrescoreQueryBlockAllocFree(t *testing.T) {
	pc := newPrescoreCase(t, 107, seq.DNA, model.JC69(), 1)
	p := pc.fx.p
	qs := [][]uint32{pc.fx.randomCodes(0.2), pc.fx.randomCodes(0.2), pc.fx.randomCodes(0.2)}
	block := make([]uint32, p.QueryBlockLen(len(qs)))
	p.FillQueryBlock(block, qs)
	out := make([]float64, len(qs))
	sc := p.NewScratch()
	run := func() {
		p.PrescoreQueryBlock(sc.LazyPrescoreRow(pc.bclv, pc.bscale, pc.ppend), block, len(qs), true, out)
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("lazy prescoring allocated %v per run, want 0", allocs)
	}
}

// TestFillQueryBlockLayout pins the site-major SoA layout.
func TestFillQueryBlockLayout(t *testing.T) {
	fx := newFixture(t, 109, 9, 70)
	p := fx.p
	nq := 3
	qs := [][]uint32{fx.randomQuery(70, 0.25), fx.randomQuery(70, 0.25), fx.randomQuery(70, 0.25)}
	block := make([]uint32, p.QueryBlockLen(nq))
	p.FillQueryBlock(block, qs)
	width := p.Comp.OriginalWidth()
	for q := 0; q < nq; q++ {
		for site := 0; site < width; site++ {
			if block[site*nq+q] != qs[q][site] {
				t.Fatalf("layout mismatch at site=%d q=%d", site, q)
			}
		}
	}
}

func BenchmarkPrescoreQueryBlock(b *testing.B) {
	var t testing.T
	pc := newPrescoreCase(&t, 111, seq.DNA, model.JC69(), 3)
	if t.Failed() {
		b.Fatal("fixture construction failed")
	}
	p := pc.fx.p
	qs := make([][]uint32, 32)
	for i := range qs {
		qs[i] = pc.fx.singleStateQuery(0.25)
	}
	nq := len(qs)
	block := make([]uint32, p.QueryBlockLen(nq))
	p.FillQueryBlock(block, qs)
	out := make([]float64, nq)
	sc := p.NewScratch()
	b.Run("lookup", func(b *testing.B) {
		row := &PrescoreRow{Vals: pc.row}
		for i := 0; i < b.N; i++ {
			p.PrescoreQueryBlock(row, block, nq, true, out)
		}
	})
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.PrescoreQueryBlock(sc.LazyPrescoreRow(pc.bclv, pc.bscale, pc.ppend), block, nq, true, out)
		}
	})
}
