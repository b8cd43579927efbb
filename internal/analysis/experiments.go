package analysis

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"dissenter/internal/allsides"
	"dissenter/internal/corpus"
	"dissenter/internal/ids"
	"dissenter/internal/perspective"
	"dissenter/internal/stats"
	"dissenter/internal/urlkit"
)

// ---------------------------------------------------------------------
// S1 — headline statistics (§4.1).

// Headline is the macro census the abstract and §4.1 report.
type Headline struct {
	Users          int
	ActiveUsers    int
	ActiveFraction float64
	Comments       int
	Replies        int
	URLs           int
	// FirstMonthJoins is the fraction of accounts whose author-id
	// timestamp falls within 37 days of the Dissenter launch (77% in the
	// paper). The timestamp comes from the identifier itself — no
	// platform cooperation required.
	FirstMonthJoins float64
	// DeletedGabUsers counts commenters missing from the Gab enumeration.
	DeletedGabUsers int
	// CensorshipBios is the fraction of user bios mentioning censorship.
	CensorshipBios float64
	// LongestComment is the maximum comment length in characters (>90k).
	LongestComment int
}

// DissenterLaunch is the platform's launch date (February 2019).
var DissenterLaunch = time.Date(2019, time.February, 23, 0, 0, 0, 0, time.UTC)

// Headline computes S1.
func (s *Study) Headline() Headline {
	var h Headline
	h.Users = len(s.DS.Users)
	h.URLs = len(s.DS.URLs)
	cutoff := DissenterLaunch.Add(37 * 24 * time.Hour)
	firstMonth, withBio := 0, 0
	s.DS.RangeUsers(func(u *corpus.User) bool {
		if u.MissingFromGab {
			h.DeletedGabUsers++
		}
		if id, err := ids.Parse(u.AuthorID); err == nil && id.Time().Before(cutoff) {
			firstMonth++
		}
		if strings.Contains(strings.ToLower(u.Bio), "censorship") {
			withBio++
		}
		return true
	})
	if h.Users > 0 {
		h.FirstMonthJoins = float64(firstMonth) / float64(h.Users)
		h.CensorshipBios = float64(withBio) / float64(h.Users)
	}
	h.ActiveUsers = len(s.DS.ActiveUsers())
	if h.Users > 0 {
		h.ActiveFraction = float64(h.ActiveUsers) / float64(h.Users)
	}
	h.Comments = len(s.DS.Comments)
	s.DS.RangeComments(func(c *corpus.Comment) bool {
		if c.IsReply() {
			h.Replies++
		}
		if n := len(c.Text); n > h.LongestComment {
			h.LongestComment = n
		}
		return true
	})
	return h
}

// ---------------------------------------------------------------------
// T1 — Table 1: user flags and view filters over active users.

// Table1 tallies boolean attributes of active users.
type Table1 struct {
	N       int
	Flags   map[string]int
	Filters map[string]int
}

// Table1 computes T1 from the hidden commentAuthor metadata.
func (s *Study) Table1() Table1 {
	t := Table1{Flags: map[string]int{}, Filters: map[string]int{}}
	for _, u := range s.DS.ActiveUsers() {
		if u.Flags == nil {
			continue
		}
		t.N++
		for flag, v := range u.Flags {
			if v {
				t.Flags[flag]++
			}
		}
		for filter, v := range u.Filters {
			if v {
				t.Filters[filter]++
			}
		}
	}
	return t
}

// ---------------------------------------------------------------------
// T2 — Table 2: most frequently commented TLDs and domains.

// Table2 ranks TLDs and registrable domains by commented-URL count.
type Table2 struct {
	Total   int
	TLDs    []urlkit.Count
	Domains []urlkit.Count
}

// Table2 computes T2.
func (s *Study) Table2() Table2 {
	urls := make([]string, len(s.DS.URLs))
	for i := range s.DS.URLs {
		urls[i] = s.DS.URLs[i].URL
	}
	return Table2{
		Total:   len(urls),
		TLDs:    urlkit.RankTLDs(urls),
		Domains: urlkit.RankDomains(urls),
	}
}

// URLForensics covers the §4.2.1 prose: scheme mix, duplicate artifacts,
// file-URL leaks, and per-domain median comment volume.
type URLForensics struct {
	SchemeCounts map[urlkit.SchemeClass]int
	OverCount    urlkit.OverCount
	// TopMedianVolume ranks domains by median comments per URL — the
	// fringe pile-on metric (thewatcherfiles.com tops the paper's list).
	TopMedianVolume []DomainVolume
}

// DomainVolume pairs a domain with its per-URL comment-count median.
type DomainVolume struct {
	Domain string
	Median float64
	URLs   int
}

// URLForensics computes the §4.2.1 analysis.
func (s *Study) URLForensics() URLForensics {
	out := URLForensics{SchemeCounts: map[urlkit.SchemeClass]int{}}
	urls := make([]string, len(s.DS.URLs))
	volumes := map[string][]float64{}
	for i := range s.DS.URLs {
		u := &s.DS.URLs[i]
		urls[i] = u.URL
		out.SchemeCounts[urlkit.ClassifyScheme(u.URL)]++
		dom := urlkit.Domain(u.URL)
		volumes[dom] = append(volumes[dom], float64(len(s.DS.CommentsOnURL(u.ID))))
	}
	out.OverCount = urlkit.AnalyzeOverCount(urls)
	for _, dom := range slices.Sorted(maps.Keys(volumes)) {
		out.TopMedianVolume = append(out.TopMedianVolume, DomainVolume{
			Domain: dom,
			Median: stats.Median(volumes[dom]),
			URLs:   len(volumes[dom]),
		})
	}
	sort.SliceStable(out.TopMedianVolume, func(i, j int) bool {
		return out.TopMedianVolume[i].Median > out.TopMedianVolume[j].Median
	})
	return out
}

// ---------------------------------------------------------------------
// F3 — Figure 3: comments per active user CDF.

// Figure3 is the activity-concentration result.
type Figure3 struct {
	// Curve is the (user fraction, comment fraction) Lorenz-style curve.
	Curve []stats.Point
	// TopShare90 is the fraction of active users producing 90% of
	// comments (≈14% in the paper).
	TopShare90 float64
	// MedianPerUser is the median comments per active user.
	MedianPerUser float64
}

// Figure3 computes F3.
func (s *Study) Figure3() Figure3 {
	counts := s.UserCommentCounts()
	contrib := make([]float64, 0, len(counts))
	for _, name := range slices.Sorted(maps.Keys(counts)) {
		contrib = append(contrib, float64(counts[name]))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(contrib)))
	var total float64
	for _, c := range contrib {
		total += c
	}
	var fig Figure3
	fig.TopShare90 = stats.GiniTopShare(contrib, 0.90)
	fig.MedianPerUser = stats.Median(contrib)
	var running float64
	for i, c := range contrib {
		running += c
		if i%max(1, len(contrib)/100) == 0 || i == len(contrib)-1 {
			fig.Curve = append(fig.Curve, stats.Point{
				X: float64(i+1) / float64(len(contrib)),
				Y: running / total,
			})
		}
	}
	return fig
}

// ---------------------------------------------------------------------
// F4 — Figure 4: shadow-overlay toxicity.

// Figure4 compares Perspective score CDFs of all vs NSFW-only vs
// offensive-only comments for three models.
type Figure4 struct {
	// ECDFs[model]["all"|"nsfw"|"offensive"].
	ECDFs map[perspective.Model]map[string]*stats.ECDF
	// OffensiveP20 is the LIKELY_TO_REJECT score at the 20th percentile
	// of offensive comments (paper: 80% score > 0.95).
	OffensiveP20 float64
}

// Figure4Models are the three Perspective models of Figure 4.
var Figure4Models = []perspective.Model{
	perspective.LikelyToReject, perspective.Obscene, perspective.SevereToxicity,
}

// Figure4 computes F4.
func (s *Study) Figure4() Figure4 {
	fig := Figure4{ECDFs: map[perspective.Model]map[string]*stats.ECDF{}}
	for _, m := range Figure4Models {
		scores := s.Scores(m)
		var all, nsfw, off []float64
		for i := range s.DS.Comments {
			all = append(all, scores[i])
			if s.DS.Comments[i].NSFW {
				nsfw = append(nsfw, scores[i])
			}
			if s.DS.Comments[i].Offensive {
				off = append(off, scores[i])
			}
		}
		fig.ECDFs[m] = map[string]*stats.ECDF{
			"all":       stats.NewECDF(all),
			"nsfw":      stats.NewECDF(nsfw),
			"offensive": stats.NewECDF(off),
		}
	}
	fig.OffensiveP20 = fig.ECDFs[perspective.LikelyToReject]["offensive"].Quantile(0.20)
	return fig
}

// ---------------------------------------------------------------------
// F5 — Figure 5: toxicity vs URL net vote score.

// Figure5 groups SEVERE_TOXICITY by net vote score.
type Figure5 struct {
	// Mean and Median are per-net-vote aggregates, sorted by net vote.
	Mean, Median []stats.Point
	ZeroVoteMean float64
	VotedMean    float64 // mean over |net| >= 3
	// Buckets tallies URLs by vote sign.
	ZeroURLs, PositiveURLs, NegativeURLs int
}

// Figure5 computes F5.
func (s *Study) Figure5() Figure5 {
	sev := s.Scores(perspective.SevereToxicity)
	perVote := map[int][]float64{}
	var fig Figure5
	var zeroSum, votedSum float64
	var zeroN, votedN int
	for i := range s.DS.URLs {
		u := &s.DS.URLs[i]
		idxs := s.DS.CommentsOnURL(u.ID)
		if len(idxs) == 0 {
			continue
		}
		net := u.NetVotes()
		switch {
		case net == 0:
			fig.ZeroURLs++
		case net > 0:
			fig.PositiveURLs++
		default:
			fig.NegativeURLs++
		}
		for _, ci := range idxs {
			perVote[net] = append(perVote[net], sev[ci])
			if net == 0 {
				zeroSum += sev[ci]
				zeroN++
			} else if net >= 3 || net <= -3 {
				votedSum += sev[ci]
				votedN++
			}
		}
	}
	votes := make([]int, 0, len(perVote))
	for v := range perVote {
		votes = append(votes, v)
	}
	sort.Ints(votes)
	for _, v := range votes {
		fig.Mean = append(fig.Mean, stats.Point{X: float64(v), Y: stats.Mean(perVote[v])})
		fig.Median = append(fig.Median, stats.Point{X: float64(v), Y: stats.Median(perVote[v])})
	}
	if zeroN > 0 {
		fig.ZeroVoteMean = zeroSum / float64(zeroN)
	}
	if votedN > 0 {
		fig.VotedMean = votedSum / float64(votedN)
	}
	return fig
}

// ---------------------------------------------------------------------
// F8 — Figure 8: Perspective scores by Allsides bias.

// Figure8 groups comment scores by the bias of the underlying URL.
type Figure8 struct {
	// Summaries[bias] are SEVERE_TOXICITY box-plot statistics (Fig 8a).
	Summaries map[allsides.Bias]stats.Summary
	// AttackECDFs[bias] are ATTACK_ON_AUTHOR distributions (Fig 8b).
	AttackECDFs map[allsides.Bias]*stats.ECDF
	// KS holds pairwise KS tests between ranked-bias SEVERE_TOXICITY
	// samples (the paper: all pairs p < 0.01).
	KS map[[2]allsides.Bias]stats.KSResult
	// RankedComments counts comments on Allsides-ranked URLs (≈600k of
	// 1.68M in the paper).
	RankedComments int
}

// Figure8 computes F8a+F8b.
func (s *Study) Figure8() Figure8 {
	sev := s.Scores(perspective.SevereToxicity)
	att := s.Scores(perspective.AttackOnAuthor)
	sevBy := map[allsides.Bias][]float64{}
	attBy := map[allsides.Bias][]float64{}
	for i := range s.DS.URLs {
		u := &s.DS.URLs[i]
		bias := allsides.Rate(u.URL)
		for _, ci := range s.DS.CommentsOnURL(u.ID) {
			sevBy[bias] = append(sevBy[bias], sev[ci])
			attBy[bias] = append(attBy[bias], att[ci])
		}
	}
	fig := Figure8{
		Summaries:   map[allsides.Bias]stats.Summary{},
		AttackECDFs: map[allsides.Bias]*stats.ECDF{},
		KS:          map[[2]allsides.Bias]stats.KSResult{},
	}
	for _, b := range allsides.AllCategories() {
		fig.Summaries[b] = stats.Summarize(sevBy[b])
		fig.AttackECDFs[b] = stats.NewECDF(attBy[b])
		if b != allsides.NotRanked {
			fig.RankedComments += len(sevBy[b])
		}
	}
	ranked := allsides.Categories()
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			if res, err := stats.KolmogorovSmirnov(sevBy[ranked[i]], sevBy[ranked[j]]); err == nil {
				fig.KS[[2]allsides.Bias{ranked[i], ranked[j]}] = res
			}
		}
	}
	return fig
}

// ---------------------------------------------------------------------
// S3 — language mix (§4.2.3).

// LanguageMix is the per-language comment share.
type LanguageMix struct {
	Total  int
	Shares map[string]float64
}

// LanguageMix computes S3.
func (s *Study) LanguageMix() LanguageMix {
	out := LanguageMix{Total: len(s.DS.Comments), Shares: map[string]float64{}}
	for lang, share := range s.lang.Distribution(s.DS.Texts()) {
		out.Shares[string(lang)] = share
	}
	return out
}

// ---------------------------------------------------------------------
// S4 — shadow overlay accounting (§4.3.1).

// ShadowOverlay counts the differential-crawl labels.
type ShadowOverlay struct {
	Total     int
	NSFW      int
	Offensive int
	NSFWRate  float64
	OffRate   float64
}

// ShadowOverlay computes S4.
func (s *Study) ShadowOverlay() ShadowOverlay {
	out := ShadowOverlay{Total: len(s.DS.Comments)}
	s.DS.RangeComments(func(c *corpus.Comment) bool {
		if c.NSFW {
			out.NSFW++
		}
		if c.Offensive {
			out.Offensive++
		}
		return true
	})
	if out.Total > 0 {
		out.NSFWRate = float64(out.NSFW) / float64(out.Total)
		out.OffRate = float64(out.Offensive) / float64(out.Total)
	}
	return out
}
