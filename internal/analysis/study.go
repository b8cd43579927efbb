// Package analysis computes every table and figure of the paper's
// evaluation (§4) from a crawled corpus.Dataset. Each experiment is a
// method on Study returning a typed result; the bench harness and the
// dissenter-analyze binary render them via internal/report. The Study
// never touches ground truth — only the crawler's output — so the whole
// §4 section is reproduced from the measurement surface, as published.
package analysis

import (
	"sync"

	"dissenter/internal/corpus"
	"dissenter/internal/langid"
	"dissenter/internal/perspective"
	"dissenter/internal/stats"
	"dissenter/internal/toxdict"
)

// Study wraps a dataset with lazily computed, cached classifier scores.
// All methods are safe for concurrent use.
type Study struct {
	DS *corpus.Dataset

	mu         sync.Mutex
	scoreCache map[perspective.Model][]float64
	dictCache  []float64
	dict       *toxdict.Scorer
	lang       *langid.Classifier
}

// NewStudy builds a Study over ds (which must be reindexed).
func NewStudy(ds *corpus.Dataset) *Study {
	return &Study{
		DS:         ds,
		scoreCache: map[perspective.Model][]float64{},
		dict:       toxdict.Default(),
		lang:       langid.Default(),
	}
}

// Scores returns the Perspective scores of every comment for a model,
// parallel to DS.Comments. Computed once and cached.
func (s *Study) Scores(m perspective.Model) []float64 {
	s.mu.Lock()
	cached, ok := s.scoreCache[m]
	s.mu.Unlock()
	if ok {
		return cached
	}
	out := make([]float64, len(s.DS.Comments))
	for i := range s.DS.Comments {
		out[i] = perspective.Score(m, s.DS.Comments[i].Text)
	}
	s.mu.Lock()
	s.scoreCache[m] = out
	s.mu.Unlock()
	return out
}

// DictScores returns the Hatebase-dictionary hate ratios per comment.
func (s *Study) DictScores() []float64 {
	s.mu.Lock()
	cached := s.dictCache
	s.mu.Unlock()
	if cached != nil {
		return cached
	}
	out := s.dict.ScoreAll(s.DS.Texts())
	s.mu.Lock()
	s.dictCache = out
	s.mu.Unlock()
	return out
}

// UserMedianToxicity computes each active user's median SEVERE_TOXICITY —
// the per-user activity metric behind §4.5's hateful core and Figures
// 9b/9c. Keys are usernames.
func (s *Study) UserMedianToxicity() map[string]float64 {
	sev := s.Scores(perspective.SevereToxicity)
	perUser := map[string][]float64{}
	for i := range s.DS.Comments {
		u := s.DS.UserByAuthorID(s.DS.Comments[i].AuthorID)
		if u == nil {
			continue
		}
		perUser[u.Username] = append(perUser[u.Username], sev[i])
	}
	out := make(map[string]float64, len(perUser))
	for name, scores := range perUser {
		out[name] = stats.Median(scores)
	}
	return out
}

// UserCommentCounts returns comments+replies per username.
func (s *Study) UserCommentCounts() map[string]int {
	out := map[string]int{}
	for i := range s.DS.Comments {
		u := s.DS.UserByAuthorID(s.DS.Comments[i].AuthorID)
		if u == nil {
			continue
		}
		out[u.Username]++
	}
	return out
}
