// Package pushshift simulates the Reddit side of §4.4.1: a population of
// Reddit accounts that overlaps Dissenter's username space (~56% of
// Dissenter usernames resolve to Reddit accounts), each with a comment
// history on a *moderated* platform, served through a Pushshift-style
// JSON API. The analysis uses it to build the Reddit baseline corpus and
// the Dissenter/Reddit comment-ratio distribution of Figure 6.
package pushshift

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"dissenter/internal/synth"
)

// MatchRate is the fraction of Dissenter usernames with a same-name
// Reddit account (§4.4.1: "more than 56k Dissenter usernames (56%)").
const MatchRate = 0.56

// RedditToneMix is the tone profile of Dissenter users' Reddit accounts.
// This cohort is rough even on a moderated platform — the paper finds
// ~10% of their Reddit comments score >= 0.5 SEVERE_TOXICITY, half of
// Dissenter's fraction — but moderation caps the grumbling and hate well
// below Dissenter levels.
var RedditToneMix = synth.ToneMix{Hateful: 0.085, Offensive: 0.10, Attack: 0.05, Grumble: 0.12, Positive: 0.20}

// Comment is one Reddit comment.
type Comment struct {
	ID         string `json:"id"`
	Author     string `json:"author"`
	Body       string `json:"body"`
	CreatedUTC int64  `json:"created_utc"`
}

// Sim is the simulated Reddit population. Construct with NewSim.
type Sim struct {
	mu       sync.RWMutex
	users    map[string]bool
	comments map[string][]Comment
}

// NewSim builds the population: for each Dissenter username, a Reddit
// account exists with probability MatchRate; matched accounts carry a
// heavy-tailed comment history (zero for ~40%, which combined with
// Dissenter-silent users produces Figure 6's mass at both endpoints).
// Extra non-Dissenter accounts exist too but are unreachable by the
// study's username-driven queries.
func NewSim(dissenterUsernames []string, seed int64) *Sim {
	ts := synth.NewTextSampler(seed)
	rng := ts.Rand()
	s := &Sim{users: map[string]bool{}, comments: map[string][]Comment{}}
	sorted := append([]string{}, dissenterUsernames...)
	sort.Strings(sorted)
	for _, name := range sorted {
		if rng.Float64() >= MatchRate {
			continue
		}
		s.users[name] = true
		if rng.Float64() < 0.55 {
			continue // account exists, never commented on Reddit
		}
		n := boundedCount(rng.Float64(), 1, 400)
		history := make([]Comment, 0, n)
		for i := 0; i < n; i++ {
			history = append(history, Comment{
				ID:         fmt.Sprintf("t1_%s%04d", name, i),
				Author:     name,
				Body:       ts.MixedComment(RedditToneMix),
				CreatedUTC: 1356998400 + rng.Int63n(230000000),
			})
		}
		s.comments[name] = history
	}
	return s
}

// boundedCount maps a uniform draw onto a truncated power-law count.
func boundedCount(u float64, min, max int) int {
	// Inverse-CDF of a Pareto with alpha ~ 1.3, truncated.
	n := int(float64(min) / math.Pow(1-u*0.999, 1/1.3))
	if n < min {
		n = min
	}
	if n > max {
		n = max
	}
	return n
}

// Users reports the number of matched Reddit accounts.
func (s *Sim) Users() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.users)
}

// PageSize is the API's maximum page size.
const PageSize = 100

// ServeHTTP implements the API:
//
//	GET /api/user/<name>                      -> 200 / 404
//	GET /reddit/search/comment/?author=&offset=&size= -> {"data":[...]}
func (s *Sim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case len(r.URL.Path) > len("/api/user/") && r.URL.Path[:10] == "/api/user/":
		name := r.URL.Path[10:]
		s.mu.RLock()
		ok := s.users[name]
		s.mu.RUnlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"name":%q}`, name)
	case r.URL.Path == "/reddit/search/comment/":
		author := r.URL.Query().Get("author")
		offset, _ := strconv.Atoi(r.URL.Query().Get("offset"))
		size, err := strconv.Atoi(r.URL.Query().Get("size"))
		if err != nil || size <= 0 || size > PageSize {
			size = PageSize
		}
		s.mu.RLock()
		history := s.comments[author]
		s.mu.RUnlock()
		if offset < 0 {
			offset = 0
		}
		end := offset + size
		if offset > len(history) {
			offset = len(history)
		}
		if end > len(history) {
			end = len(history)
		}
		w.Header().Set("Content-Type", "application/json")
		resp := struct {
			Data []Comment `json:"data"`
		}{Data: history[offset:end]}
		if resp.Data == nil {
			resp.Data = []Comment{}
		}
		_ = json.NewEncoder(w).Encode(resp)
	default:
		http.NotFound(w, r)
	}
}
