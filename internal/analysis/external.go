package analysis

import (
	"sort"

	"dissenter/internal/gabcrawl"
	"dissenter/internal/hatespeech"
	"dissenter/internal/stats"
	"dissenter/internal/urlkit"
	"dissenter/internal/youtube"
)

// ---------------------------------------------------------------------
// F2 — Figure 2: Gab user IDs assigned to new accounts over time.

// Figure2 summarizes the enumerated ID-vs-creation-time scatter.
type Figure2 struct {
	Accounts int
	// Series is the (creation time, Gab ID) scatter down-sampled to at
	// most 500 points for rendering.
	Series []gabcrawl.IDGrowthPoint
	// Inversions counts decreasing-ID steps in creation order: zero
	// would mean a perfect counter; the paper observes two anomalous
	// periods.
	Inversions int
	// MonotoneFraction is 1 - inversions/steps.
	MonotoneFraction float64
}

// Figure2FromAccounts computes F2 from a Gab enumeration.
func Figure2FromAccounts(accounts []gabcrawl.Account) Figure2 {
	series := gabcrawl.GrowthSeries(accounts)
	inv := gabcrawl.CountInversions(series)
	fig := Figure2{Accounts: len(accounts), Inversions: inv}
	if len(series) > 1 {
		fig.MonotoneFraction = 1 - float64(inv)/float64(len(series)-1)
	}
	step := len(series)/500 + 1
	for i := 0; i < len(series); i += step {
		fig.Series = append(fig.Series, series[i])
	}
	return fig
}

// ---------------------------------------------------------------------
// T3 — Table 3: baseline dataset overview.

// Table3Row is one baseline dataset's accounting.
type Table3Row struct {
	Dataset        string
	Comments       int
	DissenterUsers int // "N/A" rendered when negative
}

// Table3 assembles the overview. redditMatched is the № of matched
// Dissenter users on Reddit; sizes are the corpus comment counts.
func Table3(nytComments, dmComments, redditComments, redditMatched int) []Table3Row {
	return []Table3Row{
		{Dataset: "NY Times", Comments: nytComments, DissenterUsers: -1},
		{Dataset: "Daily Mail", Comments: dmComments, DissenterUsers: -1},
		{Dataset: "Reddit", Comments: redditComments, DissenterUsers: redditMatched},
	}
}

// ---------------------------------------------------------------------
// S2 — YouTube content breakdown (§4.2.2).

// YouTubeBreakdown is the §4.2.2 result.
type YouTubeBreakdown struct {
	URLs                        int
	ByKind                      map[youtube.Kind]int
	ByStatus                    map[youtube.Status]int
	ActiveCommentsDisabledShare float64
	// FoxShare/CNNShare: share of commented active videos per owner.
	FoxShare, CNNShare float64
	// FoxCoverage/CNNCoverage: fraction of each owner's total uploads
	// that received at least one Dissenter comment (4.7% vs 0.5%).
	FoxCoverage, CNNCoverage float64
}

// YouTubeBreakdownFrom computes S2 from a crawl summary and the site's
// per-owner totals.
func YouTubeBreakdownFrom(sum youtube.Summary, ownerTotal func(string) int) YouTubeBreakdown {
	out := YouTubeBreakdown{
		URLs:     sum.Total,
		ByKind:   sum.ByKind,
		ByStatus: sum.ByStatus,
	}
	if active := sum.ByStatus[youtube.StatusActive]; active > 0 {
		out.ActiveCommentsDisabledShare = float64(sum.ActiveCommentsDisabled) / float64(active)
	}
	commented := 0
	for _, n := range sum.CommentedByOwner {
		commented += n
	}
	if commented > 0 {
		out.FoxShare = float64(sum.CommentedByOwner["Fox News"]) / float64(commented)
		out.CNNShare = float64(sum.CommentedByOwner["CNN"]) / float64(commented)
	}
	if t := ownerTotal("Fox News"); t > 0 {
		out.FoxCoverage = float64(sum.CommentedByOwner["Fox News"]) / float64(t)
	}
	if t := ownerTotal("CNN"); t > 0 {
		out.CNNCoverage = float64(sum.CommentedByOwner["CNN"]) / float64(t)
	}
	return out
}

// YouTubeURLs extracts the YouTube URLs of the corpus for the §3.3 crawl.
func (s *Study) YouTubeURLs() []string {
	var out []string
	for i := range s.DS.URLs {
		u := s.DS.URLs[i].URL
		if urlkit.IsYouTube(u) {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------
// S6 — the §3.5.3 NLP pipeline applied to the corpus.

// NLPResult is the three-class classification outcome.
type NLPResult struct {
	CVMeanF1  float64
	FoldF1    []float64
	VocabSize int
	// ClassShares is the predicted class distribution over all Dissenter
	// comments.
	ClassShares map[hatespeech.Label]float64
	// MeanProba is the average per-class probability over comments.
	MeanProba map[hatespeech.Label]float64
}

// RunNLP trains the hate/offensive/neither classifier on a synthetic
// Davidson corpus at trainScale, cross-validates it (k folds), and
// classifies every comment in the study corpus.
func (s *Study) RunNLP(trainScale float64, k int, seed int64) NLPResult {
	c := hatespeech.SyntheticCorpus(trainScale, seed)
	cfg := hatespeech.DefaultTrainConfig()
	cv := hatespeech.CrossValidate(c, k, cfg)
	clf := hatespeech.Train(c, cfg)

	res := NLPResult{
		CVMeanF1:    cv.MeanF1,
		FoldF1:      cv.FoldF1,
		VocabSize:   clf.VocabSize(),
		ClassShares: map[hatespeech.Label]float64{},
		MeanProba:   map[hatespeech.Label]float64{},
	}
	texts := s.DS.Texts()
	if len(texts) == 0 {
		return res
	}
	probaSum := map[hatespeech.Label]float64{}
	for _, txt := range texts {
		res.ClassShares[clf.Predict(txt)]++
		for label, p := range clf.Proba(txt) {
			probaSum[label] += p
		}
	}
	n := float64(len(texts))
	for label := range res.ClassShares {
		res.ClassShares[label] /= n
	}
	for label, sum := range probaSum {
		res.MeanProba[label] = sum / n
	}
	return res
}

// ---------------------------------------------------------------------
// Dictionary scoring (§3.5.1) aggregates.

// DictionaryResult summarizes the Hatebase-dictionary scores.
type DictionaryResult struct {
	Mean        float64
	FracNonZero float64
}

// Dictionary computes the aggregate dictionary-score view.
func (s *Study) Dictionary() DictionaryResult {
	scores := s.DictScores()
	nonzero := 0
	for _, v := range scores {
		if v > 0 {
			nonzero++
		}
	}
	out := DictionaryResult{Mean: stats.Mean(scores)}
	if len(scores) > 0 {
		out.FracNonZero = float64(nonzero) / float64(len(scores))
	}
	return out
}
