package placement

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/numeric"
	"phylomem/internal/phylo"
)

// Result is the outcome of placing a set of queries.
type Result struct {
	Queries []jplace.Placements
}

// Place runs two-phase placement for all queries, processing them in chunks
// of Config.ChunkSize: phase 1 pre-scores every query against every branch
// (via the lookup table when it fits, otherwise by full likelihood
// computations over branch blocks); phase 2 re-scores the best candidate
// branches per query with pendant (and, in thorough mode, distal)
// branch-length optimization. Results are deterministic and independent of
// the memory mode, thread count, and replacement strategy.
func (e *Engine) Place(queries []Query) (*Result, error) {
	res := &Result{Queries: make([]jplace.Placements, 0, len(queries))}
	if _, err := e.PlaceStream(context.Background(), NewSliceSource(queries), func(p jplace.Placements) error {
		res.Queries = append(res.Queries, p)
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// candidate is one (query, branch) pair surviving pre-placement. postLL is
// the posterior marginal from the integration path; it stays -Inf in ML mode.
type candidate struct {
	query  int // index within chunk
	edgeID int
	loglik float64
	distal float64
	pend   float64
	postLL float64
}

// placeChunk is the single choke point of every placement path (PlaceStream
// sync and pipelined, PlaceBatch, and therefore the server's Batcher
// flushes). It validates the chunk, accounts its resident query bytes, and —
// unless Config.NoDedup — groups the queries by encoded sequence content,
// places one representative per distinct sequence via placeDistinct, and
// fans the scored results back out in the chunk's original order. Because
// placement is a pure deterministic function of a query's codes, the
// fanned-out output is byte-identical to placing every duplicate
// individually; only the work (and the per-chunk score-matrix footprint,
// accounted under "chunk-scores" for representatives only) shrinks.
func (e *Engine) placeChunk(ctx context.Context, chunk []Query) ([]jplace.Placements, error) {
	for _, q := range chunk {
		if len(q.Codes) != e.part.Comp.OriginalWidth() {
			return nil, fmt.Errorf("placement: query %q has %d sites, want %d",
				q.Name, len(q.Codes), e.part.Comp.OriginalWidth())
		}
	}
	// The full chunk is resident regardless of dedup — duplicates still hold
	// their code slices until fan-out — so query bytes are accounted here,
	// for the whole chunk, not per representative.
	qBytes := QueryBytes(chunk)
	e.acct.Alloc("chunk-queries", qBytes)
	defer e.acct.Free("chunk-queries", qBytes)

	if e.cfg.NoDedup {
		return e.placeDistinct(ctx, chunk)
	}
	reps, owner := groupByContent(chunk)
	e.dedup.ObserveChunk(len(chunk), len(reps))
	e.stats.QueriesDistinct += len(reps)
	e.stats.QueriesDeduped += len(chunk) - len(reps)
	if len(reps) == len(chunk) {
		// Nothing folded; place the chunk as-is.
		return e.placeDistinct(ctx, chunk)
	}
	distinct := make([]Query, len(reps))
	for i, qi := range reps {
		distinct[i] = chunk[qi]
	}
	res, err := e.placeDistinct(ctx, distinct)
	if err != nil {
		return nil, err
	}
	out := make([]jplace.Placements, len(chunk))
	for qi := range chunk {
		// Duplicates share the representative's placement slice (and EDPL
		// value): both are read-only from here on (serialization, nm
		// grouping), and EDPL is a pure function of the shared placements.
		out[qi] = jplace.Placements{Name: chunk[qi].Name, Placements: res[owner[qi]].Placements, EDPL: res[owner[qi]].EDPL}
	}
	return out, nil
}

// placeDistinct runs the two placement phases over a chunk whose queries are
// assumed distinct (or dedup is off).
//
// Phase 1 walks the (query × branch) score matrix in query-tile ×
// branch-tile blocks, branch-tile-outer: within one task, each branch's
// log-space prescore row streams through the cache exactly once while the
// tile's site-major query-code block and accumulators stay resident. The
// rows are the lookup table's, or — without it — lazy per-worker rows filled
// from the block's midpoint CLVs with the lookup build's arithmetic. Every
// score is one worker's per-site sum in site order, so the output is
// bit-identical across tile sizes, thread counts, and lookup on or off.
func (e *Engine) placeDistinct(ctx context.Context, chunk []Query) ([]jplace.Placements, error) {
	nq := len(chunk)
	nb := e.tr.NumBranches()
	scores, releaseScores, err := e.chunkScores(nq * nb)
	if err != nil {
		return nil, err
	}
	defer releaseScores()

	// Phase 1: pre-placement.
	start := time.Now()
	tq := e.tileQ
	if tq > nq {
		tq = nq
	}
	nqt := (nq + tq - 1) / tq
	if e.lookup != nil {
		tb := e.tileB
		if tb > nb {
			tb = nb
		}
		nbt := (nb + tb - 1) / tb
		// Task index order is branch-tile-major: consecutive tasks share a
		// branch tile, so workers running neighboring tasks stream the same
		// lookup rows through the shared cache.
		err := e.pool.ForEachContext(ctx, nbt*nqt, func(ti, worker int) {
			bt, qt := ti/nqt, ti%nqt
			e.prescoreLookupTile(chunk, qt*tq, min((qt+1)*tq, nq), bt*tb, min((bt+1)*tb, nb), worker, scores)
		})
		if err != nil {
			return nil, err
		}
	} else {
		// The branch tile IS the precomputed block here (runBlocks partitions
		// by plan.BlockSize): each query tile fills a lazy row per branch of
		// the current block from its snapshotted midpoint CLV.
		err := e.runBlocks(ctx, e.branchOrder, func(blk *branchBlock) error {
			e.pool.ForEach(nqt, func(qt, worker int) {
				e.prescoreBlockTile(blk, chunk, qt*tq, min((qt+1)*tq, nq), worker, scores)
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	e.stats.Phase1 += time.Since(start)

	// Candidate selection, as in EPA-NG's pre-placement heuristic: per
	// query, branches are kept best-first until their accumulated
	// likelihood-weight ratio (computed from the pre-scores) reaches the
	// threshold; KeepFraction bounds the candidate count from above. For
	// well-resolved queries this keeps only a handful of branches, which is
	// what makes phase 2 cheap ("each QS only gets matched against a small
	// set of promising branches", Section II).
	keepMax := int(math.Ceil(e.cfg.KeepFraction * float64(nb)))
	if keepMax < 2 {
		keepMax = 2
	}
	if keepMax > nb {
		keepMax = nb
	}
	// Only the keepMax best branches per query can ever become candidates,
	// so a bounded partial selection (min-heap of size keepMax over the row,
	// O(nb·log keepMax)) replaces the former full sort of all nb branches.
	// The selection buffer is per-worker scratch — no per-query allocation.
	// The LWR normalizer sums over all branches in ascending index order,
	// which is a fixed order independent of the worker count. Candidates land
	// in the engine-held arena indexed by (query, rank): workers write
	// disjoint per-query stripes, so the fill is race-free, and the struct is
	// pointer-free, so phase 2's fan-out adds no GC scan work.
	e.ensureCandBufs(nq, keepMax, nb)
	arena := e.arena[:nq*keepMax]
	counts := e.candCount[:nq]
	e.pool.ForEach(nq, func(qi, worker int) {
		row := scores[qi*nb : (qi+1)*nb]
		sel := numeric.TopKIndices(row, keepMax, e.wsel[worker])
		e.wsel[worker] = sel
		best := row[sel[0]]
		total := 0.0
		for b := 0; b < nb; b++ {
			total += math.Exp(row[b] - best)
		}
		stripe := arena[qi*keepMax:]
		ncand := 0
		acc := 0.0
		for _, b := range sel {
			stripe[ncand] = candidate{query: qi, edgeID: b, loglik: math.Inf(-1), postLL: math.Inf(-1)}
			ncand++
			acc += math.Exp(row[b]-best) / total
			if ncand >= 2 && acc >= e.cfg.PrescoreThreshold {
				break
			}
		}
		counts[qi] = int32(ncand)
	})
	// Group candidates by branch with a serial counting sort over the arena,
	// in query order: phase 2's work list is deterministic and the per-branch
	// groups are contiguous ranges of candIdx instead of per-branch slices.
	branchStart := e.branchStart[:nb+1]
	for i := range branchStart {
		branchStart[i] = 0
	}
	for qi := 0; qi < nq; qi++ {
		stripe := arena[qi*keepMax : qi*keepMax+int(counts[qi])]
		for i := range stripe {
			branchStart[stripe[i].edgeID+1]++
		}
	}
	for b := 0; b < nb; b++ {
		branchStart[b+1] += branchStart[b]
	}
	cursor := e.candCursor[:nb]
	copy(cursor, branchStart[:nb])
	candIdx := e.candIdx[:branchStart[nb]]
	for qi := 0; qi < nq; qi++ {
		base := qi * keepMax
		for i := 0; i < int(counts[qi]); i++ {
			b := arena[base+i].edgeID
			candIdx[cursor[b]] = int32(base + i)
			cursor[b]++
		}
	}

	// Phase 2: thorough scoring of candidates, grouped into branch blocks in
	// DFS order for slot locality.
	start = time.Now()
	for w := range e.wopt {
		e.wopt[w] = OptimizerStats{}
	}
	candEdges := e.candEdges[:0]
	for _, edge := range e.branchOrder {
		if branchStart[edge.ID+1] > branchStart[edge.ID] {
			candEdges = append(candEdges, edge)
		}
	}
	e.candEdges = candEdges
	err = e.runBlocks(ctx, candEdges, func(blk *branchBlock) error {
		// Flatten the block's tasks for even worker distribution; the task
		// list is engine-held and reused across blocks and chunks.
		tasks := e.p2tasks[:0]
		for i := range blk.entries {
			ent := &blk.entries[i]
			id := ent.edge.ID
			for _, ci := range candIdx[branchStart[id]:branchStart[id+1]] {
				tasks = append(tasks, phase2Task{ent: ent, cand: ci})
			}
		}
		e.p2tasks = tasks
		e.pool.ForEach(len(tasks), func(ti, worker int) {
			t := tasks[ti]
			c := &arena[t.cand]
			e.scoreCandidate(t.ent, chunk[c.query].Codes, c, e.wscratch[worker], &e.wopt[worker])
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.stats.Phase2 += time.Since(start)
	// Fold the workers' optimizer counters: integer sums, so the totals are
	// independent of which worker scored which candidate.
	var opt OptimizerStats
	for _, w := range e.wopt {
		opt.add(w)
	}
	e.stats.Optimizer.add(opt)
	e.p2tel.Record(opt.Candidates, opt.Evals, opt.NewtonIters, opt.Bisections, opt.BoundHits, opt.CapHits, opt.Uninformative)

	if e.cfg.bayes() {
		e.stats.CandidatesIntegrated += int(branchStart[nb])
	}

	// Likelihood weight ratios (or posterior probabilities) and output
	// filtering per query.
	out := make([]jplace.Placements, nq)
	if e.cfg.bayes() {
		e.pool.ForEach(nq, func(qi, _ int) {
			out[qi] = e.filterPlacementsBayes(chunk[qi].Name, arena[qi*keepMax:qi*keepMax+int(counts[qi])])
		})
	} else {
		e.pool.ForEach(nq, func(qi, _ int) {
			out[qi] = e.filterPlacements(chunk[qi].Name, arena[qi*keepMax:qi*keepMax+int(counts[qi])])
		})
	}
	if e.cfg.EDPL {
		e.computeEDPL(out)
	}
	return out, nil
}

// prescoreLookupTile scores queries [qlo, qhi) of chunk against the lookup
// rows of branches [blo, bhi) into scores, on the worker's scratch.
func (e *Engine) prescoreLookupTile(chunk []Query, qlo, qhi, blo, bhi, worker int, scores []float64) {
	block, out := e.queryTile(chunk, qlo, qhi, worker)
	n, nb := qhi-qlo, e.tr.NumBranches()
	var row phylo.PrescoreRow
	for b := blo; b < bhi; b++ {
		row.Vals = e.lookupRow(b)
		e.part.PrescoreQueryBlock(&row, block, n, e.cfg.SkipGaps, out)
		for i := 0; i < n; i++ {
			scores[(qlo+i)*nb+b] = out[i]
		}
	}
	e.ktel.TileDone(bhi-blo, e.tileResidentBytes(n))
}

// prescoreBlockTile scores queries [qlo, qhi) of chunk against every branch
// of blk into scores, filling the worker's lazy prescore row once per branch
// and counting the cells filled as log calls.
func (e *Engine) prescoreBlockTile(blk *branchBlock, chunk []Query, qlo, qhi, worker int, scores []float64) {
	block, out := e.queryTile(chunk, qlo, qhi, worker)
	n, nb := qhi-qlo, e.tr.NumBranches()
	sc := e.wscratch[worker]
	logs := 0
	for i := range blk.entries {
		ent := &blk.entries[i]
		row := sc.LazyPrescoreRow(ent.m, ent.ms, e.ppend0)
		logs += e.part.PrescoreQueryBlock(row, block, n, e.cfg.SkipGaps, out)
		id := ent.edge.ID
		for q := 0; q < n; q++ {
			scores[(qlo+q)*nb+id] = out[q]
		}
	}
	e.logCalls.Add(uint64(logs))
	e.ktel.AddLogCalls(uint64(logs))
	e.ktel.TileDone(len(blk.entries), e.tileResidentBytes(n))
}

// Phase-2 solver settings. p2Tol is the absolute branch-length tolerance of
// every Newton solve; p2MaxIter caps each solve's derivative evaluations (a
// converging solve stays far below it, and hitting it is counted);
// p2PendLo is the shortest pendant length considered.
const (
	p2Tol     = 1e-7
	p2MaxIter = 64
	p2PendLo  = 1e-8
)

// maxPendant is the longest pendant length phase 2 considers: four times the
// mean reference branch length, at least 1e-4.
func (e *Engine) maxPendant() float64 {
	return math.Max(4*e.avgBranch, 1e-4)
}

// scoreCandidate optimizes the placement of one query on one branch with
// the worker's sumtables (phylo.Sumtable) and safeguarded Newton–Raphson
// solves (numeric.NewtonMax), in three stages:
//
//  1. the pendant length at the branch midpoint (the block's midpoint CLV);
//  2. in thorough mode, the distal position with that pendant fixed;
//  3. if stage 2 improved on stage 1, the pendant length again at the new
//     position, keeping the better of stages 2 and 3.
//
// The tables are built once per stage from the block's snapshots and cover
// the query's informative sites only; each solver step costs a few exps and
// dot products, and a log is taken only for each stage's final value. A
// query without informative sites skips the solvers and reports the start
// point (midpoint, start pendant) with log-likelihood 0. All buffers come
// from the calling worker's scratch, so the work is allocation-free after
// warm-up, and the optimizer counters go to the worker's own stats.
func (e *Engine) scoreCandidate(ent *branchEntry, codes []uint32, c *candidate, sc *phylo.Scratch, tally *OptimizerStats) {
	st := sc.Sumtable()
	sg, branchLoaded := e.optimizeStages(ent, codes, st, tally)
	c.distal, c.pend, c.loglik = sg.result(ent.edge.Length)

	if e.cfg.bayes() {
		// The posterior marginal shares this worker's sumtable (query
		// already loaded) and the block's operand snapshots; it runs after
		// the ML optimization so both scores are reported (pplacer keeps the
		// ML branch lengths alongside post_prob).
		e.integrateCandidate(ent, c, st, branchLoaded)
	}
}

// stages is one candidate's optimization trace: every stage's optimum and
// log-likelihood. Stages that did not run keep a log-likelihood of -Inf.
type stages struct {
	pend1, ll1   float64 // 1: pendant length at the branch midpoint
	distal2, ll2 float64 // 2: distal position, pendant fixed at pend1
	pend3, ll3   float64 // 3: pendant length at distal2
}

// result picks the reported placement: stage 1 at the midpoint, unless
// stage 2 improved on it, then the better of stages 2 and 3.
func (sg stages) result(blen float64) (distal, pend, ll float64) {
	distal, pend, ll = blen/2, sg.pend1, sg.ll1
	if sg.ll2 > ll {
		distal, ll = sg.distal2, sg.ll2
		if sg.ll3 > sg.ll2 {
			pend, ll = sg.pend3, sg.ll3
		}
	}
	return distal, pend, ll
}

// optimizeStages runs the three optimization stages on the worker's
// sumtable and reports whether it left the branch operands loaded.
func (e *Engine) optimizeStages(ent *branchEntry, codes []uint32, st *phylo.Sumtable, tally *OptimizerStats) (stages, bool) {
	blen := ent.edge.Length
	maxPend := e.maxPendant()
	sg := stages{
		pend1: math.Min(math.Max(e.pendant0, p2PendLo), maxPend),
		ll2:   math.Inf(-1),
		ll3:   math.Inf(-1),
	}
	tally.Candidates++
	if st.LoadQuery(codes, e.cfg.SkipGaps) == 0 {
		// The likelihood is constant (0) in both lengths: report the start.
		tally.Uninformative++
		return sg, false
	}
	st.PendantFromCLV(ent.m, ent.ms)
	sg.pend1, sg.ll1 = solvePendant(st, sg.pend1, maxPend, tally)
	if !e.cfg.Thorough || blen <= 1e-9 {
		return sg, false
	}
	st.LoadBranch(operandOf(ent.u), operandOf(ent.v), blen)
	st.FixPendant(sg.pend1)
	r := numeric.NewtonMax(st.DistalDerivs, blen/2, 0, blen, p2Tol, p2MaxIter)
	tally.solved(r)
	tally.Evals++
	sg.distal2, sg.ll2 = r.X, st.DistalLogLik(r.X)
	if sg.ll2 > sg.ll1 {
		st.PendantAt(sg.distal2)
		sg.pend3, sg.ll3 = solvePendant(st, sg.pend1, maxPend, tally)
	}
	return sg, true
}

// solvePendant maximizes the loaded pendant table over [p2PendLo, maxPend]
// from start and returns the optimum with its log-likelihood.
func solvePendant(st *phylo.Sumtable, start, maxPend float64, tally *OptimizerStats) (float64, float64) {
	r := numeric.NewtonMax(st.PendantDerivs, start, p2PendLo, maxPend, p2Tol, p2MaxIter)
	tally.solved(r)
	tally.Evals++
	return r.X, st.PendantLogLik(r.X)
}

func operandOf(oc operandCopy) phylo.Operand {
	if oc.tip != nil {
		return phylo.TipOperand(oc.tip)
	}
	return phylo.CLVOperand(oc.clv, oc.scale)
}

// filterPlacements converts a query's scored candidates (its arena stripe,
// sorted in place — phase 2 is done with it) into the reported placement
// list: sorted by likelihood, annotated with likelihood weight ratios, cut
// off at the accumulated-LWR threshold and the maximum count.
func (e *Engine) filterPlacements(name string, cands []candidate) jplace.Placements {
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].loglik != cands[b].loglik {
			return cands[a].loglik > cands[b].loglik
		}
		return cands[a].edgeID < cands[b].edgeID
	})
	best := cands[0].loglik
	total := 0.0
	for _, c := range cands {
		total += math.Exp(c.loglik - best)
	}
	out := jplace.Placements{Name: name}
	acc := 0.0
	for _, c := range cands {
		lwr := math.Exp(c.loglik-best) / total
		out.Placements = append(out.Placements, jplace.Placement{
			EdgeNum:         c.edgeID,
			LogLikelihood:   c.loglik,
			LikeWeightRatio: lwr,
			DistalLength:    c.distal,
			PendantLength:   c.pend,
		})
		acc += lwr
		if acc >= e.cfg.FilterAccThreshold || len(out.Placements) >= e.cfg.FilterMax {
			break
		}
	}
	return out
}
