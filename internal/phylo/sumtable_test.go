package phylo

import (
	"math"
	"math/rand"
	"testing"

	"phylomem/internal/model"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// sumtableFixture builds a random tree, alignment and full CLV set for the
// given alphabet and model, with four Gamma rate categories.
func sumtableFixture(t *testing.T, seed int64, a *seq.Alphabet, m *model.Model) *placementFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(9, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	msa := randomMSA(t, tr, a, 70, rng)
	rates, err := model.GammaRates(0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPartition(t, tr, msa, m, rates)
	full, err := ComputeFullCLVSet(p, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &placementFixture{tr: tr, p: p, full: full, rng: rng}
}

// randomCodes draws a query over the partition's alphabet with a share of
// gaps and some two-state ambiguity codes.
func (fx *placementFixture) randomCodes(gapFrac float64) []uint32 {
	S := fx.p.States()
	q := make([]uint32, fx.p.Comp.OriginalWidth())
	for i := range q {
		switch u := fx.rng.Float64(); {
		case u < gapFrac:
			q[i] = fx.p.Comp.Alphabet.GapMask()
		case u < gapFrac+0.05:
			q[i] = 1<<uint(fx.rng.Intn(S)) | 1<<uint(fx.rng.Intn(S))
		default:
			q[i] = 1 << uint(fx.rng.Intn(S))
		}
	}
	return q
}

func relClose(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(1, math.Abs(want))
}

// TestSumtableMatchesFillP: every sumtable evaluation equals the P-matrix
// kernels on the same inputs within 1e-10 relative — the pendant table
// against FillP + QueryLogLikScratch on a midpoint CLV, and the distal
// objective and the pendant-at-x table against a full-width
// UpdateCLVScratch at x — for DNA and AA, with and without premasking.
// Pendant lengths below ~1e-4 are covered by TestSumtableTinyLengthAccuracy:
// there both kernels' eigen sums cancel and each is only ~1e-9 accurate.
func TestSumtableMatchesFillP(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *seq.Alphabet
		m    *model.Model
	}{
		{"DNA", seq.DNA, model.JC69()},
		{"AA", seq.AA, model.SyntheticAA()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := sumtableFixture(t, 81, tc.a, tc.m)
			p := fx.p
			sc := p.NewScratch()
			st := sc.Sumtable()
			pm, pu, pv := make([]float64, p.PLen()), make([]float64, p.PLen()), make([]float64, p.PLen())
			ins := make([]float64, p.CLVLen())
			insScale := make([]int32, p.ScaleLen())
			for ei, e := range fx.tr.Edges {
				a, b := e.Nodes()
				u := fx.full.Operand(fx.tr.DirOf(e, a))
				v := fx.full.Operand(fx.tr.DirOf(e, b))
				skip := ei%2 == 0
				q := fx.randomCodes(0.3)
				st.LoadQuery(q, skip)

				mid, midScale := fx.insertionCLV(e)
				st.PendantFromCLV(mid, midScale)
				for _, tp := range []float64{1e-3, 0.1, 0.9} {
					p.FillP(pm, tp)
					want := p.QueryLogLikScratch(mid, midScale, q, pm, skip, sc)
					if got := st.PendantLogLik(tp); !relClose(got, want, 1e-10) {
						t.Fatalf("edge %d pendant %g: sumtable %.15g, FillP %.15g", e.ID, tp, got, want)
					}
				}

				st.LoadBranch(u, v, e.Length)
				for _, x := range []float64{0, 0.3 * e.Length, e.Length} {
					p.FillP(pu, x)
					p.FillP(pv, e.Length-x)
					p.UpdateCLVScratch(ins, insScale, u, v, pu, pv, sc)
					for _, tp := range []float64{1e-3, 0.05, 0.5} {
						p.FillP(pm, tp)
						want := p.QueryLogLikScratch(ins, insScale, q, pm, skip, sc)
						st.FixPendant(tp)
						if got := st.DistalLogLik(x); !relClose(got, want, 1e-10) {
							t.Fatalf("edge %d distal %g pendant %g: sumtable %.15g, UpdateCLV %.15g", e.ID, x, tp, got, want)
						}
						st.PendantAt(x)
						if got := st.PendantLogLik(tp); !relClose(got, want, 1e-10) {
							t.Fatalf("edge %d pendant-at %g pendant %g: sumtable %.15g, UpdateCLV %.15g", e.ID, x, tp, got, want)
						}
					}
				}
			}
		})
	}
}

// TestSumtableDerivatives: the analytic derivatives match central finite
// differences of the tables' own log-likelihoods.
func TestSumtableDerivatives(t *testing.T) {
	for _, tc := range []struct {
		a *seq.Alphabet
		m *model.Model
	}{{seq.DNA, model.JC69()}, {seq.AA, model.SyntheticAA()}} {
		fx := sumtableFixture(t, 82, tc.a, tc.m)
		st := fx.p.NewScratch().Sumtable()
		e := fx.tr.Edges[4]
		a, b := e.Nodes()
		st.LoadQuery(fx.randomCodes(0.2), true)
		st.LoadBranch(fx.full.Operand(fx.tr.DirOf(e, a)), fx.full.Operand(fx.tr.DirOf(e, b)), e.Length)
		st.PendantAt(0.4 * e.Length)
		const h = 1e-5
		for _, tp := range []float64{0.01, 0.1, 0.5} {
			d1, d2 := st.PendantDerivs(tp)
			f0, fp, fm := st.PendantLogLik(tp), st.PendantLogLik(tp+h), st.PendantLogLik(tp-h)
			if !relClose(d1, (fp-fm)/(2*h), 1e-5) || !relClose(d2, (fp-2*f0+fm)/(h*h), 1e-3) {
				t.Fatalf("%d states, pendant %g: derivs (%g, %g), finite differences (%g, %g)",
					tc.m.States(), tp, d1, d2, (fp-fm)/(2*h), (fp-2*f0+fm)/(h*h))
			}
		}
		st.FixPendant(0.07)
		for _, x := range []float64{0.2 * e.Length, 0.5 * e.Length, 0.8 * e.Length} {
			d1, d2 := st.DistalDerivs(x)
			f0, fp, fm := st.DistalLogLik(x), st.DistalLogLik(x+h), st.DistalLogLik(x-h)
			if !relClose(d1, (fp-fm)/(2*h), 1e-5) || !relClose(d2, (fp-2*f0+fm)/(h*h), 1e-3) {
				t.Fatalf("%d states, distal %g: derivs (%g, %g), finite differences (%g, %g)",
					tc.m.States(), x, d1, d2, (fp-fm)/(2*h), (fp-2*f0+fm)/(h*h))
			}
		}
	}
}

// TestSumtableNoInformativeSites: an all-gap query with premasking loads
// zero sites and evaluates to exactly zero with zero slope — no NaN.
func TestSumtableNoInformativeSites(t *testing.T) {
	fx := sumtableFixture(t, 83, seq.DNA, model.JC69())
	st := fx.p.NewScratch().Sumtable()
	q := make([]uint32, fx.p.Comp.OriginalWidth())
	for i := range q {
		q[i] = seq.DNA.GapMask()
	}
	if n := st.LoadQuery(q, true); n != 0 {
		t.Fatalf("all-gap query loaded %d sites", n)
	}
	mid, midScale := fx.insertionCLV(fx.tr.Edges[0])
	st.PendantFromCLV(mid, midScale)
	if v := st.PendantLogLik(0.1); v != 0 {
		t.Fatalf("empty pendant log-likelihood %v", v)
	}
	if d1, d2 := st.PendantDerivs(0.1); d1 != 0 || d2 != 0 {
		t.Fatalf("empty pendant derivatives (%v, %v)", d1, d2)
	}
}

func TestSumtableBytesCoversBuffers(t *testing.T) {
	for _, tc := range []struct {
		a *seq.Alphabet
		m *model.Model
	}{{seq.DNA, model.JC69()}, {seq.AA, model.SyntheticAA()}} {
		fx := sumtableFixture(t, 84, tc.a, tc.m)
		st := fx.p.NewScratch().Sumtable()
		e := fx.tr.Edges[2]
		a, b := e.Nodes()
		st.LoadQuery(fx.randomCodes(0), false)
		st.LoadBranch(fx.full.Operand(fx.tr.DirOf(e, a)), fx.full.Operand(fx.tr.DirOf(e, b)), e.Length)
		st.FixPendant(0.1)
		st.PendantAt(0.1)
		used := int64(cap(st.pats))*4 + int64(cap(st.qL)+cap(st.tw)+cap(st.a)+cap(st.c)+
			len(st.lr)+len(st.piRight)+len(st.e0)+len(st.e1)+len(st.g1)+len(st.g2)+len(st.al)+len(st.be)+len(st.insSite))*8
		if st.r4 != nil {
			used += 16 * 8
		}
		if planned := fx.p.SumtableBytes(); used > planned {
			t.Fatalf("%d states: sumtable holds %d bytes, SumtableBytes plans %d", tc.m.States(), used, planned)
		}
	}
}

// TestDistalDerivs4MatchesGeneric: the unrolled 4-state distal kernel
// computes the generic factorized kernel's values.
func TestDistalDerivs4MatchesGeneric(t *testing.T) {
	fx := sumtableFixture(t, 85, seq.DNA, model.JC69())
	st := fx.p.NewScratch().Sumtable()
	for _, e := range fx.tr.Edges {
		a, b := e.Nodes()
		st.LoadQuery(fx.randomCodes(0.2), true)
		st.LoadBranch(fx.full.Operand(fx.tr.DirOf(e, a)), fx.full.Operand(fx.tr.DirOf(e, b)), e.Length)
		st.FixPendant(0.05)
		for _, x := range []float64{0, 0.4 * e.Length, e.Length} {
			u1, u2 := st.DistalDerivs(x)
			r4 := st.r4
			st.r4 = nil
			g1, g2 := st.DistalDerivs(x)
			st.r4 = r4
			if !relClose(u1, g1, 1e-13) || !relClose(u2, g2, 1e-13) {
				t.Fatalf("edge %d x %g: unrolled (%g, %g), generic (%g, %g)", e.ID, x, u1, u2, g1, g2)
			}
		}
	}
}

// TestSumtableTinyLengthAccuracy: at pendant lengths where P(t)'s eigen sums
// cancel (t ≤ 1e-5, mostly rare-substitution entries of the 20-state model),
// the sumtables are as accurate as the FillP kernels. Both are measured
// against P(t) = I + Qt + Q²t²/2, exact to rounding at these lengths, with Q
// rebuilt from the eigen system.
func TestSumtableTinyLengthAccuracy(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *seq.Alphabet
		m    *model.Model
	}{
		{"DNA", seq.DNA, model.JC69()},
		{"AA", seq.AA, model.SyntheticAA()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := sumtableFixture(t, 81, tc.a, tc.m)
			p := fx.p
			S := p.States()
			ev, right, left := p.Model.Eigen()
			Q := make([]float64, S*S)
			for i := 0; i < S; i++ {
				for j := 0; j < S; j++ {
					for k := 0; k < S; k++ {
						Q[i*S+j] += right[i*S+k] * ev[k] * left[k*S+j]
					}
				}
			}
			taylor := func(dst []float64, t float64) {
				for r := 0; r < p.NumRates(); r++ {
					tt := t * p.Rates.Rates[r]
					for i := 0; i < S; i++ {
						for j := 0; j < S; j++ {
							q2 := 0.0
							for k := 0; k < S; k++ {
								q2 += Q[i*S+k] * Q[k*S+j]
							}
							v := Q[i*S+j]*tt + q2*tt*tt/2
							if i == j {
								v++
							}
							dst[r*S*S+i*S+j] = v
						}
					}
				}
			}
			sc := p.NewScratch()
			st := sc.Sumtable()
			pm, pu, pv := make([]float64, p.PLen()), make([]float64, p.PLen()), make([]float64, p.PLen())
			ins := make([]float64, p.CLVLen())
			insScale := make([]int32, p.ScaleLen())
			var worstFillP, worstTable float64
			rel := func(got, ref float64) float64 { return math.Abs(got-ref) / math.Abs(ref) }
			for _, e := range fx.tr.Edges {
				a, b := e.Nodes()
				u := fx.full.Operand(fx.tr.DirOf(e, a))
				v := fx.full.Operand(fx.tr.DirOf(e, b))
				q := fx.randomCodes(0.3)
				st.LoadQuery(q, true)
				st.LoadBranch(u, v, e.Length)
				for _, x := range []float64{0, 0.3 * e.Length, e.Length} {
					p.FillP(pu, x)
					p.FillP(pv, e.Length-x)
					p.UpdateCLVScratch(ins, insScale, u, v, pu, pv, sc)
					for _, tp := range []float64{1e-8, 1e-6, 1e-5} {
						taylor(pm, tp)
						ref := p.QueryLogLikScratch(ins, insScale, q, pm, true, sc)
						p.FillP(pm, tp)
						worstFillP = math.Max(worstFillP, rel(p.QueryLogLikScratch(ins, insScale, q, pm, true, sc), ref))
						st.FixPendant(tp)
						worstTable = math.Max(worstTable, rel(st.DistalLogLik(x), ref))
						st.PendantAt(x)
						worstTable = math.Max(worstTable, rel(st.PendantLogLik(tp), ref))
					}
				}
			}
			if worstTable > 2*worstFillP+1e-12 {
				t.Fatalf("tiny-length relative error: sumtables %.3g, FillP %.3g", worstTable, worstFillP)
			}
		})
	}
}

// TestSumtableTinyOperands: the factorized products need no rescaling at
// the bottom of the CLV range. Shrinking both inner operands by 2^-256 —
// below the level at which UpdateCLV would already have rescaled them —
// lowers every evaluation by exactly 2·256·ln 2 per informative site.
func TestSumtableTinyOperands(t *testing.T) {
	fx := sumtableFixture(t, 86, seq.DNA, model.JC69())
	var edge *tree.Edge
	for _, e := range fx.tr.Edges {
		a, b := e.Nodes()
		if !a.IsLeaf() && !b.IsLeaf() {
			edge = e
			break
		}
	}
	if edge == nil {
		t.Fatal("fixture tree has no inner edge")
	}
	a, b := edge.Nodes()
	u := fx.full.Operand(fx.tr.DirOf(edge, a))
	v := fx.full.Operand(fx.tr.DirOf(edge, b))
	shrink := func(op Operand) Operand {
		clv := make([]float64, len(op.CLV))
		for i, x := range op.CLV {
			clv[i] = math.Ldexp(x, -256)
		}
		return CLVOperand(clv, op.Scale)
	}
	st := fx.p.NewScratch().Sumtable()
	n := st.LoadQuery(fx.randomCodes(0.2), true)
	x, tp := 0.3*edge.Length, 0.05
	st.LoadBranch(u, v, edge.Length)
	st.FixPendant(tp)
	wantDistal := st.DistalLogLik(x)
	st.PendantAt(x)
	wantPend := st.PendantLogLik(tp)

	st.LoadBranch(shrink(u), shrink(v), edge.Length)
	shift := 2 * 256 * math.Ln2 * float64(n)
	st.FixPendant(tp)
	if got := st.DistalLogLik(x); !relClose(got, wantDistal-shift, 1e-12) {
		t.Fatalf("distal: tiny operands give %.12f, want %.12f", got, wantDistal-shift)
	}
	st.PendantAt(x)
	if got := st.PendantLogLik(tp); !relClose(got, wantPend-shift, 1e-12) {
		t.Fatalf("pendant-at: tiny operands give %.12f, want %.12f", got, wantPend-shift)
	}
}
