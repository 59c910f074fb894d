package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"

	"phylomem/internal/analyze"
	"phylomem/internal/jplace"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// checks collects failed correctness checks; the run reports correct only
// when none failed.
type checks struct {
	failures []string
}

func (c *checks) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// readQueryNames returns the query labels of a FASTA file in input order.
func readQueryNames(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := seq.NewFastaScanner(bufio.NewReader(f))
	var names []string
	for {
		s, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return names, nil
		}
		names = append(names, s.Label)
	}
}

// readJplace parses a jplace file.
func readJplace(path string) (*jplace.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return jplace.Read(bufio.NewReader(f))
}

// checkPlacements checks one jplace result against its tree and input: the
// edges exist in tr, every input query appears exactly once, each query's
// like_weight_ratio sum lies in (0, 1+1e-9], and with post_prob each query's
// posterior sums to 1 within 1e-4.
func checkPlacements(c *checks, what string, tr *tree.Tree, doc *jplace.Document, names []string) {
	if err := analyze.ValidateEdges(tr, doc.Queries); err != nil {
		c.failf("%s: %v", what, err)
	}
	seen := make(map[string]int, len(doc.Queries))
	for _, q := range doc.Queries {
		seen[q.Name]++
	}
	for _, n := range names {
		if seen[n] != 1 {
			c.failf("%s: query %s appears %d times, want 1", what, n, seen[n])
			return
		}
	}
	if len(doc.Queries) != len(names) {
		c.failf("%s: %d results for %d input queries", what, len(doc.Queries), len(names))
	}
	bayes := len(doc.Fields) == len(jplace.FieldsBayes)
	for _, q := range doc.Queries {
		var lwr, post float64
		for _, p := range q.Placements {
			lwr += p.LikeWeightRatio
			post += p.PostProb
		}
		if !(lwr > 0 && lwr <= 1+1e-9) {
			c.failf("%s: query %s has like_weight_ratio sum %g, want (0, 1+1e-9]", what, q.Name, lwr)
			return
		}
		if bayes && math.Abs(post-1) > 1e-4 {
			c.failf("%s: query %s has post_prob sum %g, want 1±1e-4", what, q.Name, post)
			return
		}
	}
}

// accuracy returns the mean node distance from each query's best placement
// to its true origin (analyze.Accuracy). Query names may carry a rename
// suffix after '~'; the origin is looked up by the name before it.
func accuracy(tr *tree.Tree, queries []jplace.Placements, origins map[string]*tree.Node) (float64, error) {
	nodes := make([]*tree.Node, len(queries))
	for i, q := range queries {
		n, ok := origins[originalName(q.Name)]
		if !ok {
			return 0, fmt.Errorf("no origin for query %s", q.Name)
		}
		nodes[i] = n
	}
	rep, err := analyze.Accuracy(tr, queries, nodes)
	if err != nil {
		return 0, err
	}
	if rep.Queries != len(queries) {
		return 0, fmt.Errorf("%d of %d queries have no placement", len(queries)-rep.Queries, len(queries))
	}
	return rep.MeanNodeDist, nil
}

// placementBytes renders the placements of queries — and nothing else of
// the document — as jplace bytes, for byte-identity comparisons.
func placementBytes(queries []jplace.Placements, fields []string) ([]byte, error) {
	var buf bytes.Buffer
	if err := jplace.Write(&buf, &jplace.Document{Queries: queries, Fields: fields}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
