// Package graph implements the social-network analyses of §4.5: a
// directed follower graph with degree distributions (power-law fitted),
// PageRank, the mutual-follower subgraph, connected components, and the
// hateful-core extraction — users with at least minComments comments and
// median toxicity >= the threshold, linked by mutual follows.
package graph

import (
	"sort"

	"dissenter/internal/stats"
)

// Digraph is a directed graph over string node IDs (usernames). The zero
// value is empty and ready to use.
type Digraph struct {
	out map[string]map[string]bool
	in  map[string]map[string]bool
}

// New builds an empty graph.
func New() *Digraph {
	return &Digraph{out: map[string]map[string]bool{}, in: map[string]map[string]bool{}}
}

// FromAdjacency builds a graph from a following map (the corpus.Dataset
// Graph field).
func FromAdjacency(adj map[string][]string) *Digraph {
	g := New()
	for from, tos := range adj {
		g.AddNode(from)
		for _, to := range tos {
			g.AddEdge(from, to)
		}
	}
	return g
}

// AddNode ensures the node exists (possibly isolated).
func (g *Digraph) AddNode(n string) {
	if g.out[n] == nil {
		g.out[n] = map[string]bool{}
	}
	if g.in[n] == nil {
		g.in[n] = map[string]bool{}
	}
}

// AddEdge inserts a directed follow edge; self-loops are ignored.
func (g *Digraph) AddEdge(from, to string) {
	if from == to {
		return
	}
	g.AddNode(from)
	g.AddNode(to)
	g.out[from][to] = true
	g.in[to][from] = true
}

// Mutual reports whether a and b follow each other.
func (g *Digraph) Mutual(a, b string) bool { return g.out[a][b] && g.out[b][a] }

// Nodes returns all node IDs sorted.
func (g *Digraph) Nodes() []string {
	out := make([]string, 0, len(g.out))
	for n := range g.out {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumNodes returns the node count.
func (g *Digraph) NumNodes() int { return len(g.out) }

// NumEdges returns the directed edge count.
func (g *Digraph) NumEdges() int {
	total := 0
	for _, tos := range g.out {
		total += len(tos)
	}
	return total
}

// OutDegree returns the number of users n follows.
func (g *Digraph) OutDegree(n string) int { return len(g.out[n]) }

// InDegree returns n's follower count.
func (g *Digraph) InDegree(n string) int { return len(g.in[n]) }

// Isolated counts nodes with no followers and no following — the 15,702
// Dissenter users of §4.5.1 whose Gab friends never joined.
func (g *Digraph) Isolated() int {
	count := 0
	for n := range g.out {
		if len(g.out[n]) == 0 && len(g.in[n]) == 0 {
			count++
		}
	}
	return count
}

// DegreeSeries returns parallel (in-degree, out-degree) slices over all
// nodes in sorted-node order — the Figure 9a scatter.
func (g *Digraph) DegreeSeries() (in, out []float64) {
	nodes := g.Nodes()
	in = make([]float64, len(nodes))
	out = make([]float64, len(nodes))
	for i, n := range nodes {
		in[i] = float64(g.InDegree(n))
		out[i] = float64(g.OutDegree(n))
	}
	return in, out
}

// TopBy returns the k node IDs with the largest value of f, best first.
func (g *Digraph) TopBy(k int, f func(string) int) []string {
	nodes := g.Nodes()
	sort.SliceStable(nodes, func(i, j int) bool { return f(nodes[i]) > f(nodes[j]) })
	if k > len(nodes) {
		k = len(nodes)
	}
	return nodes[:k]
}

// FitDegreeDistributions fits discrete power laws to the in- and
// out-degree distributions (§4.5.1: "both ... fit a power law").
func (g *Digraph) FitDegreeDistributions(xmin float64) (inFit, outFit stats.PowerLawFit, err error) {
	in, out := g.DegreeSeries()
	inFit, err = stats.FitPowerLaw(in, xmin)
	if err != nil {
		return
	}
	outFit, err = stats.FitPowerLaw(out, xmin)
	return
}

// PageRank computes the standard damped PageRank (d=0.85) with uniform
// teleport, iterating until the L1 delta drops below tol or maxIter.
func (g *Digraph) PageRank(damping float64, maxIter int, tol float64) map[string]float64 {
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	if tol <= 0 {
		tol = 1e-9
	}
	nodes := g.Nodes()
	n := float64(len(nodes))
	if n == 0 {
		return nil
	}
	rank := make(map[string]float64, len(nodes))
	for _, node := range nodes {
		rank[node] = 1 / n
	}
	for iter := 0; iter < maxIter; iter++ {
		next := make(map[string]float64, len(nodes))
		var danglingMass float64
		for _, node := range nodes {
			if len(g.out[node]) == 0 {
				danglingMass += rank[node]
			}
		}
		base := (1-damping)/n + damping*danglingMass/n
		for _, node := range nodes {
			next[node] = base
		}
		for _, node := range nodes {
			share := rank[node] / float64(len(g.out[node]))
			for to := range g.out[node] {
				next[to] += damping * share
			}
		}
		var delta float64
		for _, node := range nodes {
			d := next[node] - rank[node]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		rank = next
		if delta < tol {
			break
		}
	}
	return rank
}

// MutualSubgraph returns an undirected-as-symmetric-directed graph
// containing only mutual-follow pairs among the given nodes (all nodes
// when keep is nil).
func (g *Digraph) MutualSubgraph(keep map[string]bool) *Digraph {
	sub := New()
	for a, tos := range g.out {
		if keep != nil && !keep[a] {
			continue
		}
		sub.AddNode(a)
		for b := range tos {
			if keep != nil && !keep[b] {
				continue
			}
			if g.Mutual(a, b) {
				sub.AddEdge(a, b)
				sub.AddEdge(b, a)
			}
		}
	}
	return sub
}

// Components returns the weakly connected components sorted by
// decreasing size (ties broken by smallest member ID), excluding
// isolated nodes when skipIsolated is set.
func (g *Digraph) Components(skipIsolated bool) [][]string {
	seen := map[string]bool{}
	var comps [][]string
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		if skipIsolated && len(g.out[start]) == 0 && len(g.in[start]) == 0 {
			seen[start] = true
			continue
		}
		var comp []string
		stack := []string{start}
		seen[start] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			for next := range g.out[n] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
			for next := range g.in[n] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// HatefulCoreParams are the §4.5.1 selection criteria.
type HatefulCoreParams struct {
	MinComments    int     // "a has posted >= 100 comments or replies"
	MedianToxicity float64 // "a's median comment toxicity is >= 0.3"
}

// HatefulCore induces the mutual subgraph over users meeting the comment
// and toxicity bars and returns its non-isolated connected components —
// the paper finds 42 users in 6 components, the largest holding 32.
// commentCount and medianToxicity supply the per-user activity metrics.
func (g *Digraph) HatefulCore(p HatefulCoreParams,
	commentCount func(string) int, medianToxicity func(string) float64) [][]string {

	qualify := map[string]bool{}
	for _, n := range g.Nodes() {
		if commentCount(n) >= p.MinComments && medianToxicity(n) >= p.MedianToxicity {
			qualify[n] = true
		}
	}
	sub := g.MutualSubgraph(qualify)
	return sub.Components(true)
}
