package placement

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/numeric"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// oracleLogLik inserts the query as a new leaf on edge e — at distance x
// from e's first node, with pendant length p — and returns the whole tree's
// log-likelihood by plain Felsenstein pruning: per original site and rate
// category, full recursion from the model's P matrices, no pattern
// compression, no scaling, no eigen tables. Query gap codes count as fully
// ambiguous (premasking off).
func oracleLogLik(fx *fixture, e *tree.Edge, x, p float64, q []uint32) float64 {
	part := fx.part
	m, rates := part.Model, part.Rates
	S := m.States()
	a := fx.msa.Alphabet
	pmat := func(t, rate float64) []float64 {
		pm := make([]float64, S*S)
		m.TransitionMatrix(pm, t, rate)
		return pm
	}
	prop := func(pm, v []float64) []float64 {
		out := make([]float64, S)
		for s := 0; s < S; s++ {
			for s2 := 0; s2 < S; s2++ {
				out[s] += pm[s*S+s2] * v[s2]
			}
		}
		return out
	}
	tip := func(code uint32) []float64 {
		out := make([]float64, S)
		for s := 0; s < S; s++ {
			if code&(1<<uint(s)) != 0 {
				out[s] = 1
			}
		}
		return out
	}
	na, nb := e.Nodes()
	total := 0.0
	for site := 0; site < fx.msa.Width(); site++ {
		siteL := 0.0
		for r, rate := range rates.Rates {
			var partial func(d tree.Dir) []float64
			partial = func(d tree.Dir) []float64 {
				u := fx.tr.Tail(d)
				if u.IsLeaf() {
					code, _ := a.Code(fx.msa.Sequences[fx.msa.Index(u.Name)].Data[site])
					return tip(code)
				}
				ca, cb := fx.tr.Children(d)
				va := prop(pmat(fx.tr.EdgeOf(ca).Length, rate), partial(ca))
				vb := prop(pmat(fx.tr.EdgeOf(cb).Length, rate), partial(cb))
				for s := range va {
					va[s] *= vb[s]
				}
				return va
			}
			up := prop(pmat(x, rate), partial(fx.tr.DirOf(e, na)))
			vp := prop(pmat(e.Length-x, rate), partial(fx.tr.DirOf(e, nb)))
			qp := prop(pmat(p, rate), tip(q[site]))
			l := 0.0
			for s := 0; s < S; s++ {
				l += m.Freqs()[s] * up[s] * vp[s] * qp[s]
			}
			siteL += rates.Weights[r] * l
		}
		total += math.Log(siteL)
	}
	return total
}

// TestPhase2MatchesPruningOracle: with premasking off, every reported
// log-likelihood equals the whole-tree likelihood of the reference with the
// query inserted at the reported (distal, pendant), recomputed by plain
// pruning.
func TestPhase2MatchesPruningOracle(t *testing.T) {
	fx := newFixture(t, 91, 9, 80, 12)
	cfg := testConfig()
	cfg.SkipGaps = false
	res, eng := placeWith(t, fx, cfg)
	defer eng.Close()
	checked := 0
	for qi, pq := range res.Queries {
		for _, pl := range pq.Placements {
			want := oracleLogLik(fx, fx.tr.Edges[pl.EdgeNum], pl.DistalLength, pl.PendantLength, fx.queries[qi].Codes)
			if d := math.Abs(pl.LogLikelihood - want); d > 1e-8 {
				t.Fatalf("query %d edge %d (distal %g, pendant %g): reported %.12f, pruning oracle %.12f (Δ %.3g)",
					qi, pl.EdgeNum, pl.DistalLength, pl.PendantLength, pl.LogLikelihood, want, d)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no placements checked")
	}
}

// entryFor builds a branch entry for edge from a full-CLV engine's operands,
// exactly as fillBlock does.
func entryFor(e *Engine, edge *tree.Edge) *branchEntry {
	a, b := edge.Nodes()
	u := e.full.Operand(e.tr.DirOf(edge, a))
	v := e.full.Operand(e.tr.DirOf(edge, b))
	m := make([]float64, e.part.CLVLen())
	ms := make([]int32, e.part.ScaleLen())
	pu, pv := make([]float64, e.part.PLen()), make([]float64, e.part.PLen())
	e.part.FillP(pu, edge.Length/2)
	e.part.FillP(pv, edge.Length/2)
	e.part.UpdateCLV(m, ms, u, v, pu, pv)
	return &branchEntry{edge: edge,
		u: operandCopy{tip: u.Tip, clv: u.CLV, scale: u.Scale},
		v: operandCopy{tip: v.Tip, clv: v.CLV, scale: v.Scale},
		m: m, ms: ms}
}

// TestPhase2StagesConverged checks every optimization stage against the
// P-matrix kernels on the stage's own fixed inputs: ±δ probes along the
// optimized coordinate find nothing better than the stage's optimum by more
// than 1e-9, and the optimum is at least a tight-tolerance Brent search's
// minus 1e-6.
func TestPhase2StagesConverged(t *testing.T) {
	fx := newFixture(t, 92, 10, 90, 10)
	cfg := testConfig()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	part := fx.part
	sc := part.NewScratch()
	st := part.NewScratch().Sumtable()
	pm, pu, pv := make([]float64, part.PLen()), make([]float64, part.PLen()), make([]float64, part.PLen())
	ins, insScale := make([]float64, part.CLVLen()), make([]int32, part.ScaleLen())
	maxPend := eng.maxPendant()

	check := func(what string, f func(float64) float64, x, ll, lo, hi float64) {
		t.Helper()
		if got := f(x); math.Abs(got-ll) > 1e-9*math.Max(1, math.Abs(ll)) {
			t.Fatalf("%s: stage value %.12f, kernels give %.12f at %g", what, ll, got, x)
		}
		for _, d := range []float64{1e-6, 1e-4, 1e-2} {
			for _, p := range []float64{x - d, x + d} {
				if p < lo || p > hi {
					continue
				}
				if v := f(p); v > ll+1e-9 {
					t.Fatalf("%s: probe at %g gives %.12f, better than the optimum %.12f at %g", what, p, v, ll, x)
				}
			}
		}
		ref := numeric.BrentMin(func(p float64) float64 { return -f(p) }, lo, hi, 1e-10, 500)
		if ll < -ref.F-1e-6 {
			t.Fatalf("%s: optimum %.12f at %g below the Brent reference %.12f at %g", what, ll, x, -ref.F, ref.X)
		}
	}

	stagesChecked := [3]int{}
	for qi, q := range fx.queries {
		for _, edge := range fx.tr.Edges {
			if (qi+edge.ID)%3 != 0 {
				continue
			}
			ent := entryFor(eng, edge)
			var tally OptimizerStats
			sg, _ := eng.optimizeStages(ent, q.Codes, st, &tally)
			skip := cfg.SkipGaps
			check("stage 1", func(p float64) float64 {
				part.FillP(pm, p)
				return part.QueryLogLikScratch(ent.m, ent.ms, q.Codes, pm, skip, sc)
			}, sg.pend1, sg.ll1, p2PendLo, maxPend)
			stagesChecked[0]++
			atDistal := func(x float64) {
				part.FillP(pu, x)
				part.FillP(pv, edge.Length-x)
				part.UpdateCLVScratch(ins, insScale, operandOf(ent.u), operandOf(ent.v), pu, pv, sc)
			}
			if !math.IsInf(sg.ll2, -1) {
				part.FillP(pm, sg.pend1)
				check("stage 2", func(x float64) float64 {
					atDistal(x)
					return part.QueryLogLikScratch(ins, insScale, q.Codes, pm, skip, sc)
				}, sg.distal2, sg.ll2, 0, edge.Length)
				stagesChecked[1]++
			}
			if !math.IsInf(sg.ll3, -1) {
				atDistal(sg.distal2)
				check("stage 3", func(p float64) float64 {
					part.FillP(pm, p)
					return part.QueryLogLikScratch(ins, insScale, q.Codes, pm, skip, sc)
				}, sg.pend3, sg.ll3, p2PendLo, maxPend)
				stagesChecked[2]++
			}
		}
	}
	for i, n := range stagesChecked {
		if n == 0 {
			t.Fatalf("stage %d never ran", i+1)
		}
	}
}

// TestUninformativeQueryPinned: an all-gap or all-N query has no
// informative site under premasking. It skips the solvers, is counted, and
// reports the start point — branch midpoint and start pendant — with
// log-likelihood 0 and equal weights on every candidate, never NaN.
func TestUninformativeQueryPinned(t *testing.T) {
	fx := newFixture(t, 93, 8, 60, 2)
	width := fx.part.Comp.OriginalWidth()
	qs, err := EncodeQueries(seq.DNA, []seq.Sequence{
		{Label: "allgap", Data: []byte(strings.Repeat("-", width))},
		{Label: "allN", Data: []byte(strings.Repeat("N", width))},
	}, width)
	if err != nil {
		t.Fatal(err)
	}
	fx.queries = append(fx.queries, qs...)
	cfg := testConfig()
	cfg.NoDedup = true
	res, eng := placeWith(t, fx, cfg)
	defer eng.Close()

	startPend := math.Min(math.Max(eng.pendant0, p2PendLo), eng.maxPendant())
	var uninformative uint64
	for _, pq := range res.Queries[len(res.Queries)-2:] {
		n := len(pq.Placements)
		if n != 2 || pq.Placements[0].EdgeNum != 0 || pq.Placements[1].EdgeNum != 1 {
			t.Fatalf("%s: placements %+v, want edges 0 and 1 (the tie order)", pq.Name, pq.Placements)
		}
		uninformative += uint64(n)
		for i, pl := range pq.Placements {
			if i > 0 && pl.EdgeNum <= pq.Placements[i-1].EdgeNum {
				t.Fatalf("%s: tied placements not in edge order: %+v", pq.Name, pq.Placements)
			}
			edge := fx.tr.Edges[pl.EdgeNum]
			if pl.LogLikelihood != 0 || pl.DistalLength != edge.Length/2 || pl.PendantLength != startPend ||
				math.Abs(pl.LikeWeightRatio-1/float64(n)) > 1e-15 {
				t.Fatalf("%s: placement %+v, want loglik 0, distal %g, pendant %g, lwr %g",
					pq.Name, pl, edge.Length/2, startPend, 1/float64(n))
			}
		}
		var buf bytes.Buffer
		doc := &jplace.Document{Tree: jplace.TreeString(fx.tr), Queries: []jplace.Placements{pq}, Invocation: "test"}
		if err := jplace.Write(&buf, doc); err != nil {
			t.Fatalf("%s: jplace write: %v", pq.Name, err)
		}
	}
	// Both queries keep the minimum two candidates (every branch pre-scores
	// 0), all of them reported, so the counter equals the placements.
	if got := eng.Stats().Optimizer.Uninformative; got != uninformative {
		t.Fatalf("uninformative candidates counted %d, want the %d reported placements", got, uninformative)
	}
}

// TestOptimizeStagesAllocFree: once a worker's sumtable is warm, scoring a
// candidate — tables, Newton solves, counters — allocates nothing.
func TestOptimizeStagesAllocFree(t *testing.T) {
	fx := newFixture(t, 94, 8, 60, 3)
	eng, err := New(fx.part, fx.tr, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ent := entryFor(eng, fx.tr.Edges[3])
	st := fx.part.NewScratch().Sumtable()
	var tally OptimizerStats
	eng.optimizeStages(ent, fx.queries[0].Codes, st, &tally)
	allocs := testing.AllocsPerRun(50, func() {
		eng.optimizeStages(ent, fx.queries[1].Codes, st, &tally)
	})
	if allocs != 0 {
		t.Fatalf("optimizeStages allocated %v per candidate, want 0", allocs)
	}
}

// TestPlanAccountsSumtables: the budget plan reserves one full-width
// sumtable per concurrent phase-2 worker, as phylo sizes it, and the
// engine books it under its own accounting category.
func TestPlanAccountsSumtables(t *testing.T) {
	fx := newFixture(t, 95, 8, 60, 1)
	for _, tc := range []struct{ threads, workers int }{{1, 1}, {2, 3}, {4, 5}} {
		cfg := testConfig()
		cfg.Threads = tc.threads
		plan, err := PlanFor(fx.part, fx.tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(tc.workers) * fx.part.SumtableBytes(); plan.SumtableBytes != want {
			t.Fatalf("threads %d: plan reserves %d sumtable bytes, want %d", tc.threads, plan.SumtableBytes, want)
		}
		eng, err := New(fx.part, fx.tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Accountant().Breakdown()["phase2-tables"]; got != plan.SumtableBytes {
			t.Fatalf("threads %d: phase2-tables accounted %d, plan %d", tc.threads, got, plan.SumtableBytes)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
