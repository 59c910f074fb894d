package phylo

import (
	"fmt"
	"math"
)

// This file contains the per-query placement kernel: scoring a query
// sequence against an insertion-point CLV ("branch CLV"). Phase 1's
// prescore rows and block kernel are in queryblock.go.

// QueryLogLik returns the log-likelihood of placing a query on a branch,
// given the branch's insertion-point CLV (pattern-indexed), its scale
// counters, the query's per-ORIGINAL-site state codes, and pendant-branch
// transition matrices ppend:
//
//	ℓ = Σ_site log Σ_r f_r Σ_s π_s bclv[pat(site)][r][s] (Σ_s' P^r_ss' q_site[s'])
//
// When skipGaps is true, fully ambiguous query sites are skipped (EPA-NG's
// premasking): a gap contributes the branch-independent reference-tree site
// likelihood, which shifts all branches' scores equally and therefore does
// not affect placement ranking.
func (p *Partition) QueryLogLik(bclv []float64, bscale []int32, query []uint32, ppend []float64, skipGaps bool) float64 {
	sc := p.getScratch()
	ll := p.QueryLogLikScratch(bclv, bscale, query, ppend, skipGaps, sc)
	p.putScratch(sc)
	return ll
}

// QueryLogLikScratch is QueryLogLik with caller-provided scratch buffers —
// the allocation-free entry point for the branch-length optimization loops.
func (p *Partition) QueryLogLikScratch(bclv []float64, bscale []int32, query []uint32, ppend []float64, skipGaps bool, sc *Scratch) float64 {
	if len(query) != p.Comp.OriginalWidth() {
		panic(fmt.Sprintf("phylo: query has %d sites, alignment has %d", len(query), p.Comp.OriginalWidth()))
	}
	S, R := p.states, p.nrates
	gap := p.Comp.Alphabet.GapMask()

	// piP[r][s'][s] = π_s · P^r_ss': with this transposed, π-folded view the
	// per-site work becomes Σ_r f_r Σ_{s'∈code} Σ_s piP[r][s'][s]·bclv[s],
	// and the inner Σ_s is a dense dot product regardless of ambiguity.
	pi := p.Model.Freqs()
	sc.piP = grow(sc.piP, R*S*S)
	piP := sc.piP
	for r := 0; r < R; r++ {
		for s := 0; s < S; s++ {
			for sp := 0; sp < S; sp++ {
				piP[(r*S+sp)*S+s] = pi[s] * ppend[(r*S+s)*S+sp]
			}
		}
	}

	total := 0.0
	for site, pat := range p.Comp.SiteToPattern {
		code := query[site]
		if skipGaps && code == gap {
			continue
		}
		base := pat * R * S
		site64 := 0.0
		for r := 0; r < R; r++ {
			bv := bclv[base+r*S : base+r*S+S]
			sum := 0.0
			c := code
			for c != 0 {
				sp := trailingZeros32(c)
				c &= c - 1
				row := piP[(r*S+sp)*S : (r*S+sp)*S+S]
				for s := 0; s < S; s++ {
					sum += row[s] * bv[s]
				}
			}
			site64 += p.Rates.Weights[r] * sum
		}
		total += math.Log(site64) - float64(bscale[pat])*logScaleFactor
	}
	return total
}
