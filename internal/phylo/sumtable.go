package phylo

import (
	"fmt"
	"math"

	"phylomem/internal/memacct"
)

// This file holds the phase-2 sumtables: the query's placement likelihood
// projected into the model's eigenbasis once per candidate, so every
// branch-length evaluation — with its first and second derivatives — costs a
// handful of exps plus dot products over the query's informative sites. No
// P-matrix is built and no CLV is updated per evaluation, and the log is
// taken only for a final value (the RAxML/EPA branch optimizer, arXiv
// 0911.2852). With P(t) = right·diag(e^{λt})·left, rate categories ρ_r with
// weights f_r, and a query code set C per site:
//
//	pendant:  L(t) = Σ_r Σ_k T_rk e^{λ_k ρ_r t},
//	          T_rk = f_r (Σ_s π_s b_rs right_sk)(Σ_{s'∈C} left_ks')
//	distal:   L(x) = Σ_r Σ_s w_rs A_rs(x) B_rs(ℓ−x),  w_rs = f_r π_s (P^r(t)·1_C)_s
//	          A_rs(x) = Σ_k right_sk e^{λ_k ρ_r x} a_rk,  a_r = left·u_r
//	          B_rs(y) = Σ_k right_sk e^{λ_k ρ_r y} c_rk,  c_r = left·v_r
//
// where b is the insertion CLV, u and v the branch's two directional
// operands and ℓ the branch length. Each per-site L is exact (up to
// rounding) — the same likelihood QueryLogLikScratch computes from FillP
// matrices — so the tables change the cost of an evaluation, not its value.
// The probability vectors A, B and P·1_C are clamped at zero, as
// TransitionMatrix clamps P entries: at tiny lengths their eigen sums cancel
// to rounding noise, and dropping the negative noise keeps the tables as
// accurate as the P-matrix kernels there.

// minSiteLik floors a site likelihood that cancellation in the eigen sums
// drove to zero or below; such a site's true likelihood is below the float64
// resolution of its terms. The floor only guards the log.
const minSiteLik = 1e-300

// siteLog is log(l) with l floored at minSiteLik.
func siteLog(l float64) float64 {
	if l < minSiteLik {
		l = minSiteLik
	}
	return math.Log(l)
}

// nonneg clamps a probability-valued eigen sum at zero.
func nonneg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Sumtable is one worker's phase-2 table set. Load a query with LoadQuery,
// then build a pendant table (PendantFromCLV or PendantAt) or the distal
// table (LoadBranch + FixPendant) and evaluate it. Every buffer is grown on
// first use and reused, so a warmed-up Sumtable is allocation-free.
type Sumtable struct {
	p       *Partition
	S, R    int
	lr      []float64 // R·S: λ_k ρ_r
	right   []float64 // S·S
	left    []float64 // S·S
	piRight []float64 // S·S, transposed: [k·S+s] = π_s right_sk

	n    int       // informative sites of the loaded query
	pats []int32   // n: compressed pattern of each informative site
	qL   []float64 // n·S: Σ_{s'∈C} left_ks'

	// tw holds either the pendant table T (PendantFromCLV, PendantAt) or
	// the distal weights w (FixPendant): no stage needs both, so building one
	// discards the other and a worker's tables stay at 3·R·S floats per site.
	tw     []float64 // n·R·S
	tabPen float64   // Σ scale·log 2^256 of the pendant table's sites

	blen    float64
	a, c    []float64      // n·R·S: eigen-projected branch operands
	abPen   float64        // Σ scale·log 2^256 of a·c over the sites
	e0, e1  []float64      // R·S per-evaluation exponentials
	g1, g2  []float64      // R·S derivative factors
	al, be  []float64      // S·3 per-site eigen coefficient buffers
	r4      *[4][4]float64 // right, for the unrolled 4-state distal kernel
	insSite []float64      // S: one rate's insertion vector
}

// Sumtable returns the scratch's sumtable, creating it on first use.
func (s *Scratch) Sumtable() *Sumtable {
	if s.sum == nil {
		s.sum = s.p.newSumtable()
	}
	return s.sum
}

func (p *Partition) newSumtable() *Sumtable {
	S, R := p.states, p.nrates
	evals, right, left := p.Model.Eigen()
	st := &Sumtable{p: p, S: S, R: R, right: right, left: left,
		lr:      make([]float64, R*S),
		piRight: make([]float64, S*S),
		e0:      make([]float64, R*S), e1: make([]float64, R*S),
		g1: make([]float64, R*S), g2: make([]float64, R*S),
		al: make([]float64, 3*S), be: make([]float64, 3*S),
		insSite: make([]float64, S),
	}
	for r := 0; r < R; r++ {
		for k := 0; k < S; k++ {
			st.lr[r*S+k] = evals[k] * p.Rates.Rates[r]
		}
	}
	pi := p.Model.Freqs()
	for s := 0; s < S; s++ {
		for k := 0; k < S; k++ {
			st.piRight[k*S+s] = pi[s] * right[s*S+k]
		}
	}
	if S == 4 {
		st.r4 = new([4][4]float64)
		for i := range st.r4 {
			copy(st.r4[i][:], right[i*4:i*4+4])
		}
	}
	return st
}

// SumtableBytes returns the largest footprint a Sumtable of this partition
// reaches: its per-informative-site tables at full query width plus its
// fixed per-evaluation buffers (see memacct.SumtableBytes).
func (p *Partition) SumtableBytes() int64 {
	return memacct.SumtableBytes(p.Comp.OriginalWidth(), p.states, p.nrates)
}

// LoadQuery selects the query's informative sites — every site, or with
// skipGaps only those whose code is not the gap mask (EPA-NG's premasking,
// as in QueryLogLikScratch) — and projects their codes onto the left
// eigenvectors. It returns the number of informative sites, which may be 0.
func (st *Sumtable) LoadQuery(query []uint32, skipGaps bool) int {
	p := st.p
	if len(query) != p.Comp.OriginalWidth() {
		panic(fmt.Sprintf("phylo: query has %d sites, alignment has %d", len(query), p.Comp.OriginalWidth()))
	}
	S := st.S
	gap := p.Comp.Alphabet.GapMask()
	if cap(st.pats) < len(query) {
		st.pats = make([]int32, 0, len(query))
	}
	st.pats = st.pats[:0]
	st.qL = grow(st.qL, len(query)*S)
	n := 0
	for site, pat := range p.Comp.SiteToPattern {
		code := query[site]
		if skipGaps && code == gap {
			continue
		}
		st.pats = append(st.pats, int32(pat))
		ql := st.qL[n*S : n*S+S]
		c := normTipCode(code, S)
		for k := 0; k < S; k++ {
			row := st.left[k*S : k*S+S]
			sum := 0.0
			for cc := c; cc != 0; cc &= cc - 1 {
				sum += row[trailingZeros32(cc)]
			}
			ql[k] = sum
		}
		n++
	}
	st.n = n
	return n
}

// PendantFromCLV builds the pendant table against a full-width insertion
// CLV (pattern-indexed, as EdgeLogLik's operands), e.g. a branch midpoint.
func (st *Sumtable) PendantFromCLV(bclv []float64, bscale []int32) {
	S, R, n := st.S, st.R, st.n
	st.tw = grow(st.tw, n*R*S)
	fr := st.p.Rates.Weights
	pen := 0.0
	for i := 0; i < n; i++ {
		pat := int(st.pats[i])
		base := pat * R * S
		for r := 0; r < R; r++ {
			st.pendantRow(i, r, fr[r], bclv[base+r*S:base+r*S+S])
		}
		pen += float64(bscale[pat])
	}
	st.tabPen = pen * logScaleFactor
}

// pendantRow fills site i's rate-r table row from that rate's insertion
// vector b: T_rk = f_r (Σ_s π_s b_s right_sk) qL_k.
func (st *Sumtable) pendantRow(i, r int, fr float64, b []float64) {
	S := st.S
	ql := st.qL[i*S : i*S+S]
	out := st.tw[(i*st.R+r)*S : (i*st.R+r)*S+S]
	for k := 0; k < S; k++ {
		sum := 0.0
		for s, v := range st.piRight[k*S : k*S+S] {
			sum += v * b[s]
		}
		out[k] = fr * sum * ql[k]
	}
}

// expTable fills dst with e^{λ_k ρ_r t} for every (rate, eigen-index).
func (st *Sumtable) expTable(dst []float64, t float64) {
	for i, l := range st.lr {
		dst[i] = math.Exp(l * t)
	}
}

// PendantDerivs returns the first and second derivatives of the loaded
// query's log-likelihood with respect to the pendant length t.
func (st *Sumtable) PendantDerivs(t float64) (d1, d2 float64) {
	e, g1, g2 := st.e0, st.g1, st.g2
	st.expTable(e, t)
	for i, l := range st.lr {
		g1[i] = l * e[i]
		g2[i] = l * g1[i]
	}
	RS := st.R * st.S
	for i := 0; i < st.n; i++ {
		row := st.tw[i*RS : i*RS+RS]
		var l0, l1, l2 float64
		for j, v := range row {
			l0 += v * e[j]
			l1 += v * g1[j]
			l2 += v * g2[j]
		}
		if !(l0 > minSiteLik) {
			continue
		}
		q := l1 / l0
		d1 += q
		d2 += l2/l0 - q*q
	}
	return d1, d2
}

// PendantLogLik returns the loaded query's log-likelihood at pendant length
// t — the value QueryLogLikScratch computes with FillP(t) matrices.
func (st *Sumtable) PendantLogLik(t float64) float64 {
	e := st.e0
	st.expTable(e, t)
	RS := st.R * st.S
	total := 0.0
	for i := 0; i < st.n; i++ {
		row := st.tw[i*RS : i*RS+RS]
		l0 := 0.0
		for j, v := range row {
			l0 += v * e[j]
		}
		total += siteLog(l0)
	}
	return total - st.tabPen
}

// PendantGridLogLik returns log Σ_i exp(logw[i] + PendantLogLik(pends[i]))
// with a streaming, single-order log-sum-exp, so the result is
// bit-reproducible for a fixed grid.
func (st *Sumtable) PendantGridLogLik(pends, logw []float64) float64 {
	if len(pends) != len(logw) {
		panic("phylo: pendant grid and log-weights length mismatch")
	}
	m := math.Inf(-1)
	s := 0.0
	for i, t := range pends {
		term := logw[i] + st.PendantLogLik(t)
		if term <= m {
			s += math.Exp(term - m)
		} else {
			s = s*math.Exp(m-term) + 1
			m = term
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	return m + math.Log(s)
}

// LoadBranch projects the branch's directional operands u (distal end,
// position 0) and v (position blen) onto the left eigenvectors at the
// loaded query's informative sites. No per-site rescaling is needed: every
// CLV pattern keeps its largest entry above 2^-256, so a product of the two
// sides stays near 2^-512 at worst, far above the float64 range limit.
func (st *Sumtable) LoadBranch(u, v Operand, blen float64) {
	S, R, n := st.S, st.R, st.n
	st.blen = blen
	st.a = grow(st.a, n*R*S)
	st.c = grow(st.c, n*R*S)
	pen := 0.0
	for i := 0; i < n; i++ {
		pat := int(st.pats[i])
		st.project(st.a[i*R*S:(i+1)*R*S], u, pat)
		st.project(st.c[i*R*S:(i+1)*R*S], v, pat)
		if u.Scale != nil {
			pen += float64(u.Scale[pat])
		}
		if v.Scale != nil {
			pen += float64(v.Scale[pat])
		}
	}
	st.abPen = pen * logScaleFactor
}

// project writes left·op for every rate of pattern pat into dst (R·S).
func (st *Sumtable) project(dst []float64, op Operand, pat int) {
	S, R := st.S, st.R
	if op.Tip != nil {
		c := normTipCode(op.Tip[pat], S)
		for k := 0; k < S; k++ {
			row := st.left[k*S : k*S+S]
			sum := 0.0
			for cc := c; cc != 0; cc &= cc - 1 {
				sum += row[trailingZeros32(cc)]
			}
			for r := 0; r < R; r++ {
				dst[r*S+k] = sum
			}
		}
		return
	}
	base := pat * R * S
	for r := 0; r < R; r++ {
		cv := op.CLV[base+r*S : base+r*S+S]
		for k := 0; k < S; k++ {
			row := st.left[k*S : k*S+S]
			sum := 0.0
			for j := 0; j < S; j++ {
				sum += row[j] * cv[j]
			}
			dst[r*S+k] = sum
		}
	}
}

// PendantAt builds the pendant table at distal position x of the branch
// loaded by LoadBranch: the insertion vector A(x)∘B(blen−x) is formed at the
// informative sites only, never as a full-width CLV.
func (st *Sumtable) PendantAt(x float64) {
	S, R, n := st.S, st.R, st.n
	st.tw = grow(st.tw, n*R*S)
	eA, eB := st.e0, st.e1
	st.expTable(eA, x)
	st.expTable(eB, st.blen-x)
	fr := st.p.Rates.Weights
	ins := st.insSite
	for i := 0; i < n; i++ {
		for r := 0; r < R; r++ {
			off := (i*R + r) * S
			av, cv := st.a[off:off+S], st.c[off:off+S]
			ea, eb := eA[r*S:r*S+S], eB[r*S:r*S+S]
			for s := 0; s < S; s++ {
				row := st.right[s*S : s*S+S]
				var A, B float64
				for k := 0; k < S; k++ {
					A += row[k] * ea[k] * av[k]
					B += row[k] * eb[k] * cv[k]
				}
				ins[s] = nonneg(A) * nonneg(B)
			}
			st.pendantRow(i, r, fr[r], ins)
		}
	}
	st.tabPen = st.abPen
}

// FixPendant fixes the pendant length t for the distal objective: w_rs =
// f_r π_s (P^r(t)·1_C)_s at every informative site.
func (st *Sumtable) FixPendant(t float64) {
	S, R, n := st.S, st.R, st.n
	st.tw = grow(st.tw, n*R*S)
	e := st.e0
	st.expTable(e, t)
	fr := st.p.Rates.Weights
	pi := st.p.Model.Freqs()
	tmp := st.al[:S]
	for i := 0; i < n; i++ {
		ql := st.qL[i*S : i*S+S]
		for r := 0; r < R; r++ {
			er := e[r*S : r*S+S]
			for k := 0; k < S; k++ {
				tmp[k] = er[k] * ql[k]
			}
			out := st.tw[(i*R+r)*S : (i*R+r)*S+S]
			for s := 0; s < S; s++ {
				row := st.right[s*S : s*S+S]
				q := 0.0
				for k := 0; k < S; k++ {
					q += row[k] * tmp[k]
				}
				out[s] = fr[r] * pi[s] * nonneg(q)
			}
		}
	}
}

// DistalDerivs returns the first and second derivatives of the loaded
// query's log-likelihood with respect to the distal position x, at the
// pendant length fixed by FixPendant.
func (st *Sumtable) DistalDerivs(x float64) (d1, d2 float64) {
	if st.r4 != nil {
		return st.distalDerivs4(x)
	}
	S, R := st.S, st.R
	eA, eB := st.e0, st.e1
	st.expTable(eA, x)
	st.expTable(eB, st.blen-x)
	al, be := st.al, st.be
	for i := 0; i < st.n; i++ {
		var l0, l1, l2 float64
		for r := 0; r < R; r++ {
			off := (i*R + r) * S
			av, cv, wv := st.a[off:off+S], st.c[off:off+S], st.tw[off:off+S]
			lr := st.lr[r*S : r*S+S]
			for k := 0; k < S; k++ {
				ta := eA[r*S+k] * av[k]
				tb := eB[r*S+k] * cv[k]
				al[k], al[S+k], al[2*S+k] = ta, ta*lr[k], ta*lr[k]*lr[k]
				be[k], be[S+k], be[2*S+k] = tb, -tb*lr[k], tb*lr[k]*lr[k]
			}
			for s := 0; s < S; s++ {
				row := st.right[s*S : s*S+S]
				var A, A1, A2, B, B1, B2 float64
				for k := 0; k < S; k++ {
					rk := row[k]
					A += rk * al[k]
					A1 += rk * al[S+k]
					A2 += rk * al[2*S+k]
					B += rk * be[k]
					B1 += rk * be[S+k]
					B2 += rk * be[2*S+k]
				}
				A, B = nonneg(A), nonneg(B)
				ws := wv[s]
				l0 += ws * A * B
				l1 += ws * (A1*B + A*B1)
				l2 += ws * (A2*B + 2*A1*B1 + A*B2)
			}
		}
		if !(l0 > minSiteLik) {
			continue
		}
		q := l1 / l0
		d1 += q
		d2 += l2/l0 - q*q
	}
	return d1, d2
}

// DistalLogLik returns the loaded query's log-likelihood with the insertion
// point at distal position x and the pendant length fixed by FixPendant.
func (st *Sumtable) DistalLogLik(x float64) float64 {
	S, R := st.S, st.R
	eA, eB := st.e0, st.e1
	st.expTable(eA, x)
	st.expTable(eB, st.blen-x)
	al, be := st.al[:S], st.be[:S]
	total := 0.0
	for i := 0; i < st.n; i++ {
		l0 := 0.0
		for r := 0; r < R; r++ {
			off := (i*R + r) * S
			av, cv, wv := st.a[off:off+S], st.c[off:off+S], st.tw[off:off+S]
			for k := 0; k < S; k++ {
				al[k] = eA[r*S+k] * av[k]
				be[k] = eB[r*S+k] * cv[k]
			}
			for s := 0; s < S; s++ {
				row := st.right[s*S : s*S+S]
				var A, B float64
				for k := 0; k < S; k++ {
					A += row[k] * al[k]
					B += row[k] * be[k]
				}
				l0 += wv[s] * nonneg(A) * nonneg(B)
			}
		}
		total += siteLog(l0)
	}
	return total - st.abPen
}

// distalDerivs4 is DistalDerivs unrolled for 4 states, in the generic
// kernel's operation order.
func (st *Sumtable) distalDerivs4(x float64) (d1, d2 float64) {
	R := st.R
	eA, eB := st.e0, st.e1
	st.expTable(eA, x)
	st.expTable(eB, st.blen-x)
	rt := st.r4
	for i := 0; i < st.n; i++ {
		var l0, l1, l2 float64
		for r := 0; r < R; r++ {
			off := (i*R + r) * 4
			av := (*[4]float64)(st.a[off : off+4])
			cv := (*[4]float64)(st.c[off : off+4])
			wv := (*[4]float64)(st.tw[off : off+4])
			lr := (*[4]float64)(st.lr[r*4 : r*4+4])
			ea := (*[4]float64)(eA[r*4 : r*4+4])
			eb := (*[4]float64)(eB[r*4 : r*4+4])
			var al, al1, al2, be, be1, be2 [4]float64
			for k := 0; k < 4; k++ {
				ta := ea[k] * av[k]
				tb := eb[k] * cv[k]
				al[k], al1[k], al2[k] = ta, ta*lr[k], ta*lr[k]*lr[k]
				be[k], be1[k], be2[k] = tb, -tb*lr[k], tb*lr[k]*lr[k]
			}
			for s := range rt {
				row := &rt[s]
				A := row[0]*al[0] + row[1]*al[1] + row[2]*al[2] + row[3]*al[3]
				A1 := row[0]*al1[0] + row[1]*al1[1] + row[2]*al1[2] + row[3]*al1[3]
				A2 := row[0]*al2[0] + row[1]*al2[1] + row[2]*al2[2] + row[3]*al2[3]
				B := row[0]*be[0] + row[1]*be[1] + row[2]*be[2] + row[3]*be[3]
				B1 := row[0]*be1[0] + row[1]*be1[1] + row[2]*be1[2] + row[3]*be1[3]
				B2 := row[0]*be2[0] + row[1]*be2[1] + row[2]*be2[2] + row[3]*be2[3]
				A, B = nonneg(A), nonneg(B)
				ws := wv[s]
				l0 += ws * A * B
				l1 += ws * (A1*B + A*B1)
				l2 += ws * (A2*B + 2*A1*B1 + A*B2)
			}
		}
		if !(l0 > minSiteLik) {
			continue
		}
		q := l1 / l0
		d1 += q
		d2 += l2/l0 - q*q
	}
	return d1, d2
}
