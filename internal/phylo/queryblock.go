package phylo

import (
	"fmt"
	"math"
)

// This file contains phase 1: log-space prescore rows, which memoize a
// branch's side of the placement likelihood (EPA-NG's pre-placement lookup
// table, whose footprint causes the paper's Fig. 3 cliff), and the one
// kernel that scores a site-major (block[site*nq+q]) query block against a
// row. The lookup table holds complete rows; below its floor each worker
// fills a lazy row cell by cell with the same code, so scores are
// bit-identical across tile sizes and with the lookup table on or off.

// unfilled marks a lazy row cell not computed yet. No entry can hold it: an
// entry is the log of a finite value minus a finite scale penalty.
var unfilled = math.Inf(1)

// PrescoreRow is one branch's log-space prescore row (PrescoreRowLen values):
//
//	Vals[pat·S+s'] = log(Σ_r f_r Σ_s π_s bclv[pat][r][s] P^r_ss') − bscale[pat]·log 2^256
//
// the log-likelihood contribution of a query site in state s' on pattern
// pat under the pendant matrices P the row was built with. A lazy row also
// keeps its branch's midpoint CLV, scale counters and pendant matrices, and
// computes each unfilled cell on first touch.
type PrescoreRow struct {
	Vals []float64
	// Lazy source (nil for a complete row); fpi[r·S+s] = f_r·π_s.
	bclv   []float64
	bscale []int32
	ppend  []float64
	fpi    []float64
}

// PrescoreRowLen returns the number of float64 values in one prescore row
// (one branch): patterns × states.
func (p *Partition) PrescoreRowLen() int { return p.patterns * p.states }

// BuildPrescoreRow fills dst (PrescoreRowLen values) with the complete
// prescore row of a branch with midpoint insertion CLV bclv, scale counters
// bscale and pendant matrices ppend — every cell of the scratch's lazy row.
func (s *Scratch) BuildPrescoreRow(dst []float64, bclv []float64, bscale []int32, ppend []float64) {
	if len(dst) != s.p.PrescoreRowLen() {
		panic(fmt.Sprintf("phylo: prescore row length %d, want %d", len(dst), s.p.PrescoreRowLen()))
	}
	r := s.LazyPrescoreRow(bclv, bscale, ppend)
	filled := 0
	for i := range dst {
		dst[i] = r.cell(s.p, i/s.p.states, i%s.p.states, &filled)
	}
}

// LazyPrescoreRow resets the scratch's prescore row to a lazy row over one
// branch's midpoint CLV bclv, scale counters bscale and pendant matrices
// ppend: every cell is unfilled until PrescoreQueryBlock first reads it. The
// row is reused across calls, so it allocates only on first use.
func (s *Scratch) LazyPrescoreRow(bclv []float64, bscale []int32, ppend []float64) *PrescoreRow {
	p, r := s.p, &s.prow
	r.Vals = grow(r.Vals, p.PrescoreRowLen())
	for i := range r.Vals {
		r.Vals[i] = unfilled
	}
	r.fpi = grow(r.fpi, p.nrates*p.states)
	pi := p.Model.Freqs()
	for i := range r.fpi {
		r.fpi[i] = p.Rates.Weights[i/p.states] * pi[i%p.states]
	}
	r.bclv, r.bscale, r.ppend = bclv, bscale, ppend
	return r
}

// cell returns row cell (pat, sp), first computing and storing it if the row
// is lazy and the cell unfilled: the linear term accumulated over rate
// categories and states in ascending order, zero weights skipped, then its
// log minus the pattern's scale penalty. filled counts the computed cells.
func (r *PrescoreRow) cell(p *Partition, pat, sp int, filled *int) float64 {
	S := p.states
	v := r.Vals[pat*S+sp]
	if v != unfilled {
		return v
	}
	RS := len(r.fpi)
	bv := r.bclv[pat*RS : (pat+1)*RS]
	sum := 0.0
	for i, f := range r.fpi {
		w := f * bv[i]
		if w == 0 {
			continue
		}
		sum += w * r.ppend[i*S+sp]
	}
	v = math.Log(sum) - float64(r.bscale[pat])*logScaleFactor
	r.Vals[pat*S+sp] = v
	*filled++
	return v
}

// QueryBlockLen returns the length of a site-major query-code block holding
// nq queries: nq × original alignment width.
func (p *Partition) QueryBlockLen(nq int) int { return nq * p.Comp.OriginalWidth() }

// FillQueryBlock transposes the given queries (each OriginalWidth codes,
// query-major) into dst's site-major layout: dst[site*len(queries)+q] =
// queries[q][site]. dst must have QueryBlockLen(len(queries)) entries.
func (p *Partition) FillQueryBlock(dst []uint32, queries [][]uint32) {
	nq := len(queries)
	width := p.Comp.OriginalWidth()
	if len(dst) < nq*width {
		panic(fmt.Sprintf("phylo: query block has %d entries, want %d", len(dst), nq*width))
	}
	for q, codes := range queries {
		if len(codes) != width {
			panic(fmt.Sprintf("phylo: query %d has %d sites, alignment has %d", q, len(codes), width))
		}
		for site, c := range codes {
			dst[site*nq+q] = c
		}
	}
}

// PrescoreQueryBlock scores nq queries (site-major code block, see
// FillQueryBlock) against one prescore row in a single pass over the sites,
// writing each query's score to out[q], and returns the number of lazy row
// cells it filled (one log each). A single-state site adds its row entry; an
// ambiguity code adds the log-sum-exp of its states' entries; with skipGaps,
// gap sites add nothing (EPA-NG's premasking: a gap contributes the same
// constant on every branch, so it cannot change the ranking).
func (p *Partition) PrescoreQueryBlock(row *PrescoreRow, block []uint32, nq int, skipGaps bool, out []float64) int {
	S := p.states
	gap := p.Comp.Alphabet.GapMask()
	if len(block) < p.QueryBlockLen(nq) || len(out) < nq {
		panic(fmt.Sprintf("phylo: query block has %d entries and output %d, want %d and %d", len(block), len(out), p.QueryBlockLen(nq), nq))
	}
	out = out[:nq]
	for q := range out {
		out[q] = 0
	}
	filled := 0
	for site, pat := range p.Comp.SiteToPattern {
		rs := row.Vals[pat*S : pat*S+S : pat*S+S]
		codes := block[site*nq : site*nq+nq]
		for q, code := range codes {
			if code != 0 && code&(code-1) == 0 {
				v := rs[trailingZeros32(code)]
				if v == unfilled {
					v = row.cell(p, pat, trailingZeros32(code), &filled)
				}
				out[q] += v
				continue
			}
			if skipGaps && code == gap {
				continue
			}
			out[q] += row.ambiguous(p, pat, code, &filled)
		}
	}
	return filled
}

// ambiguous returns the score of an ambiguity code on pattern pat: the log
// of its states' summed linear entries, as a log-sum-exp of the row's log
// entries. Code 0 (no state) scores log 0.
func (r *PrescoreRow) ambiguous(p *Partition, pat int, code uint32, filled *int) float64 {
	m := math.Inf(-1)
	for c := code; c != 0; c &= c - 1 {
		m = math.Max(m, r.cell(p, pat, trailingZeros32(c), filled))
	}
	if math.IsInf(m, -1) {
		return m
	}
	sum := 0.0
	for c := code; c != 0; c &= c - 1 {
		sum += math.Exp(r.Vals[pat*p.states+trailingZeros32(c)] - m)
	}
	return m + math.Log(sum)
}

// QueryTile fills the scratch's reusable site-major code block with queries
// (see FillQueryBlock) and returns it with a per-query accumulator, growing
// both on first use.
func (s *Scratch) QueryTile(queries [][]uint32) ([]uint32, []float64) {
	n := s.p.QueryBlockLen(len(queries))
	if cap(s.blkCodes) < n {
		s.blkCodes = make([]uint32, n)
	}
	s.p.FillQueryBlock(s.blkCodes[:n], queries)
	s.blkOut = grow(s.blkOut, len(queries))
	return s.blkCodes[:n], s.blkOut
}
