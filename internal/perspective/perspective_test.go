package perspective

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"testing/quick"

	"dissenter/internal/lexicon"
)

var allModels = []Model{SevereToxicity, Obscene, LikelyToReject, AttackOnAuthor}

func slur() string  { return lexicon.Hatebase().WordsByCategory(lexicon.CategorySlur)[0] }
func slur2() string { return lexicon.Hatebase().WordsByCategory(lexicon.CategorySlur)[1] }

func TestScoreBounds(t *testing.T) {
	texts := []string{
		"", "hello", "THIS IS SHOUTING!!!", "you are an idiot and a fraud",
		"great article thanks", slur() + " " + slur2(),
	}
	for _, m := range allModels {
		for _, s := range texts {
			v := Score(m, s)
			if v < 0 || v > 1 {
				t.Errorf("Score(%s, %q) = %v out of range", m, s, v)
			}
		}
	}
}

func TestScoreDeterministic(t *testing.T) {
	s := "you are a pathetic idiot and the author is a fraud"
	for _, m := range allModels {
		if Score(m, s) != Score(m, s) {
			t.Errorf("%s not deterministic", m)
		}
	}
}

func TestSevereToxicityOrdering(t *testing.T) {
	hateful := "the " + slur() + " must be destroyed, exterminate them all"
	insulting := "you are a stupid pathetic idiot"
	profaneOnly := "damn, that's cool as hell"
	praise := "great article, thanks for the insightful report"
	hs := Score(SevereToxicity, hateful)
	is := Score(SevereToxicity, insulting)
	ps := Score(SevereToxicity, profaneOnly)
	gs := Score(SevereToxicity, praise)
	if !(hs > is && is > ps && ps >= gs) {
		t.Errorf("ordering broken: hate=%.3f insult=%.3f profane=%.3f praise=%.3f", hs, is, ps, gs)
	}
	if hs < 0.7 {
		t.Errorf("hateful comment severe toxicity %.3f too low", hs)
	}
	// The model must be "less sensitive to positive uses of profanity".
	if ps > 0.4 {
		t.Errorf("positive profanity severe toxicity %.3f too high", ps)
	}
}

func TestLikelyToRejectMoreSensitive(t *testing.T) {
	// Mildly rude comments should trip LIKELY_TO_REJECT well before
	// SEVERE_TOXICITY.
	mild := "what a dumb take, you people are sheep"
	ltr := Score(LikelyToReject, mild)
	sev := Score(SevereToxicity, mild)
	if ltr <= sev {
		t.Errorf("LIKELY_TO_REJECT (%.3f) should exceed SEVERE_TOXICITY (%.3f) on mild rudeness", ltr, sev)
	}
}

func TestObsceneTracksProfanity(t *testing.T) {
	profane := "damn hell crap bloody bollocks"
	clean := "the committee will meet again next month"
	if Score(Obscene, profane) <= Score(Obscene, clean) {
		t.Error("OBSCENE does not track profanity")
	}
	if Score(Obscene, profane) < 0.5 {
		t.Errorf("OBSCENE on dense profanity = %.3f", Score(Obscene, profane))
	}
}

func TestAttackOnAuthorNeedsAuthor(t *testing.T) {
	attack := "the author is a pathetic liar and a fraud"
	insultNoAuthor := "that politician is a pathetic liar and a fraud"
	neutral := "the author makes several interesting points"
	a := Score(AttackOnAuthor, attack)
	b := Score(AttackOnAuthor, insultNoAuthor)
	c := Score(AttackOnAuthor, neutral)
	if !(a > b && a > c) {
		t.Errorf("author-targeted attack should dominate: %.3f %.3f %.3f", a, b, c)
	}
	if a < 0.5 {
		t.Errorf("direct author attack = %.3f, want >= 0.5", a)
	}
	if c > 0.4 {
		t.Errorf("neutral author mention = %.3f, want low", c)
	}
}

func TestEmptyCommentScoresZero(t *testing.T) {
	for _, m := range allModels {
		if Score(m, "") != 0 {
			t.Errorf("Score(%s, empty) != 0", m)
		}
	}
}

func TestModelValid(t *testing.T) {
	for _, m := range allModels {
		if !m.Valid() {
			t.Errorf("%s reported invalid", m)
		}
	}
	if Model("TOXICITY_9000").Valid() {
		t.Error("unknown model reported valid")
	}
}

func TestScoreAll(t *testing.T) {
	got := ScoreAll("you idiot", allModels)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	text := "the author is a pathetic fraud"
	scores, err := client.Analyze(context.Background(), text, allModels)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allModels {
		want := Score(m, text)
		if scores[m] != want {
			t.Errorf("%s over HTTP = %v, want %v", m, scores[m], want)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	if _, err := client.Analyze(context.Background(), "x", nil); err == nil {
		t.Error("no attributes should error")
	}
	if _, err := client.Analyze(context.Background(), "x", []Model{"NOPE"}); err == nil {
		t.Error("unknown attribute should error")
	}
}

// TestHTTPRateLimitRetry: one 429-then-200 exchange. The client has no
// retry loop of its own; this is crawlkit.Fetcher's, reached through
// Analyze's JSON POST.
func TestHTTPRateLimitRetry(t *testing.T) {
	var limited atomic.Int32
	api := Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if limited.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
			return
		}
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	scores, err := client.Analyze(context.Background(), "you idiot", []Model{SevereToxicity})
	if err != nil {
		t.Fatalf("retry did not recover from 429: %v", err)
	}
	if limited.Load() != 2 || scores[SevereToxicity] != Score(SevereToxicity, "you idiot") {
		t.Fatalf("after %d requests got %v", limited.Load(), scores)
	}
}

func TestQuickScoreTotal(t *testing.T) {
	f := func(text string) bool {
		for _, m := range allModels {
			v := Score(m, text)
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScore(b *testing.B) {
	text := "the author is a pathetic idiot and you sheep keep believing the media"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Score(SevereToxicity, text)
	}
}

func BenchmarkScoreAllModels(b *testing.B) {
	text := "the author is a pathetic idiot and you sheep keep believing the media"
	models := allModels
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScoreAll(text, models)
	}
}
