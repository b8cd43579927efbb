package analysis

import (
	"maps"
	"math"
	"slices"
	"sort"

	"dissenter/internal/graph"
	"dissenter/internal/perspective"
	"dissenter/internal/pushshift"
	"dissenter/internal/stats"
)

// ---------------------------------------------------------------------
// F9 + §4.5 — social network analysis.

// SocialStats is the §4.5.1 network characterization.
type SocialStats struct {
	Nodes, Edges int
	Isolated     int
	// Power-law fits of the degree distributions.
	InFit, OutFit stats.PowerLawFit
	// Top in/out degree values, descending.
	TopInDegrees, TopOutDegrees []int
	// DegreeScatter is the log-binned Figure 9a series (followers vs
	// mean following).
	DegreeScatter []stats.Point
	// ToxicityVsFollowers/Following are Figures 9b/9c: mean and median
	// user toxicity log-binned by degree.
	ToxicityVsFollowersMean   []stats.Point
	ToxicityVsFollowersMedian []stats.Point
	ToxicityVsFollowingMean   []stats.Point
	ToxicityVsFollowingMedian []stats.Point
	// TopDegreeProlificOverlap counts users in both the top-10 by degree
	// and the top-10 by comment volume (the paper: zero overlap).
	TopDegreeProlificOverlap int
}

// Graph materializes the crawled Dissenter follower graph, with every
// observed user present (isolated users matter for §4.5.1).
func (s *Study) Graph() *graph.Digraph {
	g := graph.FromAdjacency(s.DS.Graph)
	for i := range s.DS.Users {
		g.AddNode(s.DS.Users[i].Username)
	}
	return g
}

// SocialStats computes the network characterization.
func (s *Study) SocialStats() SocialStats {
	g := s.Graph()
	var out SocialStats
	out.Nodes = g.NumNodes()
	out.Edges = g.NumEdges()
	out.Isolated = g.Isolated()
	if inFit, outFit, err := g.FitDegreeDistributions(1); err == nil {
		out.InFit, out.OutFit = inFit, outFit
	}

	nodes := g.Nodes()
	inDeg := make([]float64, len(nodes))
	outDeg := make([]float64, len(nodes))
	for i, n := range nodes {
		inDeg[i] = float64(g.InDegree(n))
		outDeg[i] = float64(g.OutDegree(n))
	}
	out.DegreeScatter = stats.LogBin(inDeg, outDeg, 3)

	top := func(vals []float64) []int {
		sorted := append([]float64{}, vals...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		k := 3
		if k > len(sorted) {
			k = len(sorted)
		}
		res := make([]int, k)
		for i := 0; i < k; i++ {
			res[i] = int(sorted[i])
		}
		return res
	}
	out.TopInDegrees = top(inDeg)
	out.TopOutDegrees = top(outDeg)

	// Figures 9b/9c: per-user toxicity vs degree.
	tox := s.UserMedianToxicity()
	var fIn, fOut, tMedian []float64
	for _, n := range nodes {
		t, ok := tox[n]
		if !ok {
			continue // never commented
		}
		fIn = append(fIn, float64(g.InDegree(n)))
		fOut = append(fOut, float64(g.OutDegree(n)))
		tMedian = append(tMedian, t)
	}
	out.ToxicityVsFollowersMean = stats.LogBin(fIn, tMedian, 3)
	out.ToxicityVsFollowingMean = stats.LogBin(fOut, tMedian, 3)
	out.ToxicityVsFollowersMedian = logBinMedian(fIn, tMedian, 3)
	out.ToxicityVsFollowingMedian = logBinMedian(fOut, tMedian, 3)

	// Overlap between popularity and prolificacy.
	counts := s.UserCommentCounts()
	topDegree := map[string]bool{}
	for _, n := range g.TopBy(10, g.InDegree) {
		topDegree[n] = true
	}
	for _, n := range g.TopBy(10, g.OutDegree) {
		topDegree[n] = true
	}
	type uc struct {
		name string
		n    int
	}
	var byCount []uc
	for name, n := range counts {
		byCount = append(byCount, uc{name, n})
	}
	sort.Slice(byCount, func(i, j int) bool {
		if byCount[i].n != byCount[j].n {
			return byCount[i].n > byCount[j].n
		}
		return byCount[i].name < byCount[j].name
	})
	for i := 0; i < 10 && i < len(byCount); i++ {
		if topDegree[byCount[i].name] {
			out.TopDegreeProlificOverlap++
		}
	}
	return out
}

// logBinMedian mirrors stats.LogBin but aggregates with the median.
func logBinMedian(xs, ys []float64, binsPerDecade int) []stats.Point {
	if len(xs) != len(ys) || binsPerDecade < 1 {
		return nil
	}
	bins := map[int][]float64{}
	for i, x := range xs {
		if x <= 0 {
			continue
		}
		b := int(math.Floor(math.Log10(x) * float64(binsPerDecade)))
		bins[b] = append(bins[b], ys[i])
	}
	var pts []stats.Point
	for _, k := range slices.Sorted(maps.Keys(bins)) {
		center := math.Pow(10, (float64(k)+0.5)/float64(binsPerDecade))
		pts = append(pts, stats.Point{X: center, Y: stats.Median(bins[k])})
	}
	return pts
}

// ---------------------------------------------------------------------
// S5 — the hateful core (§4.5.1).

// HatefulCore is the core-extraction result.
type HatefulCore struct {
	Components [][]string
	TotalUsers int
	Largest    int
	Params     graph.HatefulCoreParams
}

// HatefulCore extracts the core with the given parameters (the paper's
// are MinComments 100, MedianToxicity 0.3; scale MinComments with the
// corpus).
func (s *Study) HatefulCore(p graph.HatefulCoreParams) HatefulCore {
	g := s.Graph()
	counts := s.UserCommentCounts()
	tox := s.UserMedianToxicity()
	comps := g.HatefulCore(p,
		func(n string) int { return counts[n] },
		func(n string) float64 { return tox[n] })
	out := HatefulCore{Components: comps, Params: p}
	for _, c := range comps {
		out.TotalUsers += len(c)
		if len(c) > out.Largest {
			out.Largest = len(c)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// F6 — Figure 6: Dissenter/Reddit comment ratios.

// Figure6 is the cross-platform activity comparison.
type Figure6 struct {
	MatchedUsers  int
	RatioECDF     *stats.ECDF
	DissenterOnly float64 // fraction with ratio == 1
	RedditOnly    float64 // fraction with ratio == 0
}

// Figure6 computes the comment-ratio distribution from Reddit matches.
func (s *Study) Figure6(matches []pushshift.MatchResult) Figure6 {
	counts := s.UserCommentCounts()
	var ratios []float64
	only1, only0 := 0, 0
	for _, m := range matches {
		d := counts[m.Username]
		r, ok := pushshift.CommentRatio(d, len(m.Comments))
		if !ok {
			continue
		}
		ratios = append(ratios, r)
		if r == 1 {
			only1++
		}
		if r == 0 {
			only0++
		}
	}
	fig := Figure6{MatchedUsers: len(matches), RatioECDF: stats.NewECDF(ratios)}
	if len(ratios) > 0 {
		fig.DissenterOnly = float64(only1) / float64(len(ratios))
		fig.RedditOnly = float64(only0) / float64(len(ratios))
	}
	return fig
}

// ---------------------------------------------------------------------
// F7 — Figure 7: cross-platform Perspective comparisons.

// Figure7 holds per-source score distributions for one model.
type Figure7 struct {
	Model perspective.Model
	// ECDFs keyed by source name: "Dissenter", "Reddit", "NY Times",
	// "Daily Mail".
	ECDFs map[string]*stats.ECDF
}

// Figure7 scores every corpus with one model. The baseline corpora are
// passed in as plain text (Reddit text from pushshift matches, news
// corpora from internal/baselines).
func (s *Study) Figure7(m perspective.Model, sources map[string][]string) Figure7 {
	fig := Figure7{Model: m, ECDFs: map[string]*stats.ECDF{}}
	fig.ECDFs["Dissenter"] = stats.NewECDF(s.Scores(m))
	for name, texts := range sources {
		scores := make([]float64, len(texts))
		for i, txt := range texts {
			scores[i] = perspective.Score(m, txt)
		}
		fig.ECDFs[name] = stats.NewECDF(scores)
	}
	return fig
}

// RedditTexts flattens pushshift matches into a text corpus.
func RedditTexts(matches []pushshift.MatchResult) []string {
	var out []string
	for _, m := range matches {
		for _, c := range m.Comments {
			out = append(out, c.Body)
		}
	}
	return out
}
