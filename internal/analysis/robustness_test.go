package analysis

import (
	"testing"

	"dissenter/internal/corpus"
	"dissenter/internal/graph"
	"dissenter/internal/perspective"
)

// TestEmptyDatasetTotal ensures every experiment tolerates an empty
// corpus without panicking — the analyze binary may be pointed at a
// failed or truncated crawl.
func TestEmptyDatasetTotal(t *testing.T) {
	ds := &corpus.Dataset{Graph: map[string][]string{}}
	ds.Reindex()
	s := NewStudy(ds)

	h := s.Headline()
	if h.Users != 0 || h.Comments != 0 {
		t.Errorf("empty headline: %+v", h)
	}
	if tab := s.Table1(); tab.N != 0 {
		t.Errorf("Table1 N = %d", tab.N)
	}
	if tab := s.Table2(); tab.Total != 0 {
		t.Errorf("Table2 Total = %d", tab.Total)
	}
	_ = s.URLForensics()
	if fig := s.Figure3(); len(fig.Curve) != 0 {
		t.Errorf("Figure3 curve = %v", fig.Curve)
	}
	fig4 := s.Figure4()
	if fig4.OffensiveP20 != 0 {
		t.Errorf("Figure4 P20 = %v", fig4.OffensiveP20)
	}
	_ = s.Figure5()
	_ = s.Figure6(nil)
	_ = s.Figure7(perspective.SevereToxicity, nil)
	_ = s.Figure8()
	if mix := s.LanguageMix(); mix.Total != 0 {
		t.Errorf("LanguageMix = %+v", mix)
	}
	_ = s.ShadowOverlay()
	ss := s.SocialStats()
	if ss.Nodes != 0 {
		t.Errorf("SocialStats nodes = %d", ss.Nodes)
	}
	core := s.HatefulCore(graph.HatefulCoreParams{MinComments: 100, MedianToxicity: 0.3})
	if core.TotalUsers != 0 {
		t.Errorf("core = %+v", core)
	}
	_ = s.Dictionary()
	cc := s.CovertChannels()
	if len(cc.Candidates) != 0 {
		t.Errorf("covert candidates = %v", cc.Candidates)
	}
	def := s.ProactiveDefenseSweep(5, 1, 0.3, 1)
	if def.PagesEvaluated != 0 {
		t.Errorf("defense sweep = %+v", def)
	}
}

// TestSingleUserDataset exercises the degenerate one-of-everything case.
func TestSingleUserDataset(t *testing.T) {
	ds := &corpus.Dataset{
		Users:    []corpus.User{{AuthorID: "5c780b190000000000000001", Username: "solo"}},
		URLs:     []corpus.URL{{ID: "u1", URL: "https://example.com/a", Title: "A"}},
		Comments: []corpus.Comment{{ID: "c1", URLID: "u1", AuthorID: "5c780b190000000000000001", Text: "hello world"}},
		Graph:    map[string][]string{},
	}
	ds.Reindex()
	s := NewStudy(ds)
	h := s.Headline()
	if h.Users != 1 || h.ActiveUsers != 1 || h.Comments != 1 {
		t.Errorf("headline: %+v", h)
	}
	if h.FirstMonthJoins != 1 {
		t.Errorf("first-month = %v (author-id encodes Feb 2019)", h.FirstMonthJoins)
	}
	fig := s.Figure3()
	if fig.TopShare90 != 1 {
		t.Errorf("TopShare90 = %v", fig.TopShare90)
	}
	if tox := s.UserMedianToxicity(); len(tox) != 1 {
		t.Errorf("toxicity map = %v", tox)
	}
}
