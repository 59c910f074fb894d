package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"phylomem/internal/mlfit"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
	"phylomem/internal/workload"
)

// Input file names inside a workload's data directory. The program under
// test reads only the first three; origins.tsv is the ground truth the
// accuracy check reads.
const (
	treeFile    = "reference.nwk"
	refFile     = "reference.fasta"
	queryFile   = "queries.fasta"
	originsFile = "origins.tsv"
	doneFile    = "complete"
)

// datasetScale is the divisor applied to the paper's dataset dimensions:
// neotrop at 16 is 48 leaves × 292 sites × 5,963 queries, pro_ref at 16 is
// 1,250 leaves × 100 sites × 208 queries.
const datasetScale = 16

// refSeed fixes each shape's reference tree and alignment and its queries.
// A batch run places the shape's own queries in an order drawn from the run
// seed, which sets how they fall into chunks; the serving workload draws
// its larger pool from poolFactor times the shape's query count, evolved on
// the same reference. Drawing the reference per seed made every metric
// depend on the tree drawn (mean node distance alone ranged over 0.5-2.5
// across neotrop trees), and drawing pro_ref's 208 queries per seed moved
// their mean node distance over 9.4-13.0: spreads that would hide the
// effect of any later change.
const (
	refSeed    = 1
	poolFactor = 4
)

// queryCoverage mirrors the read-like query coverage of the workload
// package's shapes, which SimConfig needs but Dataset does not record.
var queryCoverage = map[string]float64{"neotrop": 0.35, "pro_ref": 0.5}

// modelSpec is the substitution model every workload uses, resolved the way
// the CLIs resolve their default (empirical frequencies from the reference).
const modelSpec = "GTR+G4"

// generate writes one shape's inputs for a run seed to dir as a user would
// receive them: a Newick tree, a reference FASTA and a query FASTA, plus the
// query origins. count = 0 writes the shape's own queries in a seeded order;
// count > 0 draws that many from the larger pool.
func generate(shape string, seed int64, count int, dir string) error {
	ds, err := workload.ByName(shape, datasetScale, refSeed)
	if err != nil {
		return err
	}
	src := ds
	if count > 0 {
		// The same seed and dimensions reproduce ds's tree and alignment;
		// the larger query count only extends the query stream.
		src, err = workload.Simulate(workload.SimConfig{
			Name:          ds.Name,
			Leaves:        ds.Tree.NumLeaves(),
			Sites:         ds.RefMSA.Width(),
			NumQueries:    poolFactor * len(ds.Queries),
			Alphabet:      ds.Alphabet,
			Model:         ds.Model,
			Rates:         ds.Rates,
			Seed:          refSeed,
			QueryCoverage: queryCoverage[shape],
		})
		if err != nil {
			return err
		}
		if src.Tree.WriteNewick() != ds.Tree.WriteNewick() {
			return fmt.Errorf("%s query pool was evolved on a different tree", shape)
		}
	} else {
		count = len(ds.Queries)
	}
	if count > len(src.Queries) {
		return fmt.Errorf("%d queries requested from a pool of %d", count, len(src.Queries))
	}
	pick := rand.New(rand.NewSource(seed)).Perm(len(src.Queries))[:count]
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, treeFile), []byte(ds.Tree.WriteNewick()+"\n"), 0o644); err != nil {
		return err
	}
	if err := writeFasta(filepath.Join(dir, refFile), ds.RefMSA.Sequences); err != nil {
		return err
	}
	queries := make([]seq.Sequence, len(pick))
	keys := nodeKeys(src.Tree)
	var sb strings.Builder
	for i, k := range pick {
		queries[i] = src.Queries[k]
		fmt.Fprintf(&sb, "%s\t%s\n", src.Queries[k].Label, keys[src.QueryOrigins[k]])
	}
	if err := writeFasta(filepath.Join(dir, queryFile), queries); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, originsFile), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, doneFile), nil, 0o644)
}

func writeFasta(path string, seqs []seq.Sequence) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := seq.WriteFasta(w, seqs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nodeKeys names every node by the smallest leaf label on each side of it,
// sorted: a leaf by its own label, an inner node by the minima of its three
// subtrees. Two distinct nodes never share a key (the side facing the other
// node holds all but one of its minima), and the key survives a Newick
// round trip, which renumbers nodes.
func nodeKeys(tr *tree.Tree) map[*tree.Node]string {
	keys := make(map[*tree.Node]string, len(tr.Nodes))
	for _, n := range tr.Nodes {
		if n.IsLeaf() {
			keys[n] = n.Name
			continue
		}
		mins := make([]string, 0, len(n.Edges))
		for _, e := range n.Edges {
			mins = append(mins, minLeaf(e.Other(n), e))
		}
		sort.Strings(mins)
		keys[n] = strings.Join(mins, ",")
	}
	return keys
}

// minLeaf returns the smallest leaf label in the subtree entered at n
// through edge from.
func minLeaf(n *tree.Node, from *tree.Edge) string {
	type frame struct {
		n    *tree.Node
		from *tree.Edge
	}
	best := ""
	stack := []frame{{n, from}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.n.IsLeaf() && (best == "" || f.n.Name < best) {
			best = f.n.Name
		}
		for _, e := range f.n.Edges {
			if e != f.from {
				stack = append(stack, frame{e.Other(f.n), e})
			}
		}
	}
	return best
}

// readOrigins maps each query name to its origin node in tr (the tree the
// program parsed), through the node keys written by generate.
func readOrigins(dir string, tr *tree.Tree) (map[string]*tree.Node, error) {
	b, err := os.ReadFile(filepath.Join(dir, originsFile))
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]*tree.Node, len(tr.Nodes))
	for n, k := range nodeKeys(tr) {
		byKey[k] = n
	}
	out := map[string]*tree.Node{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		name, key, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", originsFile, line)
		}
		n, ok := byKey[key]
		if !ok {
			return nil, fmt.Errorf("%s: origin of %s is not a node of the parsed tree", originsFile, name)
		}
		out[name] = n
	}
	return out, nil
}

// reference is a loaded reference: what placement.New needs.
type reference struct {
	tr    *tree.Tree
	msa   *seq.MSA
	part  *phylo.Partition
	width int
}

// setupTimes are the per-layer durations of one reference load.
type setupTimes struct {
	treeParse, msa, modelSpec, partition time.Duration
}

// loadReference reads the tree and reference alignment from dir and builds
// the likelihood partition, timing each layer and recording spans under
// parent.
func loadReference(dir string, trc *tracer, parent, req int) (*reference, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	sp := trc.begin("tree.ParseNewick", parent, req)
	nwk, err := os.ReadFile(filepath.Join(dir, treeFile))
	if err != nil {
		return nil, st, err
	}
	t, err := tree.ParseNewick(strings.TrimSpace(string(nwk)))
	trc.end(sp)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	st.treeParse = t1.Sub(t0)

	sp = trc.begin("seq.ReadFasta+NewMSA+Compress", parent, req)
	f, err := os.Open(filepath.Join(dir, refFile))
	if err != nil {
		return nil, st, err
	}
	seqs, err := seq.ReadFasta(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return nil, st, err
	}
	msa, err := seq.NewMSA(seq.DNA, seqs)
	if err != nil {
		return nil, st, err
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		return nil, st, err
	}
	trc.end(sp)
	t2 := time.Now()
	st.msa = t2.Sub(t1)

	sp = trc.begin("model.ParseSpec", parent, req)
	freqs, err := mlfit.EmpiricalFreqs(msa)
	if err != nil {
		return nil, st, err
	}
	m, rates, err := model.ParseSpec(modelSpec, freqs)
	if err != nil {
		return nil, st, err
	}
	trc.end(sp)
	t3 := time.Now()
	st.modelSpec = t3.Sub(t2)

	sp = trc.begin("phylo.NewPartition", parent, req)
	part, err := phylo.NewPartition(m, rates, comp, t)
	trc.end(sp)
	if err != nil {
		return nil, st, err
	}
	st.partition = time.Since(t3)
	return &reference{tr: t, msa: msa, part: part, width: msa.Width()}, st, nil
}
