// Package langid is a character n-gram naive-Bayes language identifier
// standing in for the langid.py tool the paper uses in §4.2.3 to classify
// the language of all 1.68M comments. It supports the languages that
// matter for the Dissenter corpus — English, German, French, Spanish,
// Italian, Portuguese, and Dutch — using trigram models trained at init
// time from small embedded seed corpora.
package langid

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// Language is an ISO 639-1 code.
type Language string

// Supported languages.
const (
	English    Language = "en"
	German     Language = "de"
	French     Language = "fr"
	Spanish    Language = "es"
	Italian    Language = "it"
	Portuguese Language = "pt"
	Dutch      Language = "nl"
)

// Result is a classification outcome.
type Result struct {
	Lang       Language
	Confidence float64 // normalized posterior in (0, 1]
}

// Classifier identifies languages. Construct with New; the zero value is
// unusable.
type Classifier struct {
	langs  []Language
	models map[Language]*ngramModel
}

type ngramModel struct {
	logProb map[string]float64
	floor   float64 // log-probability assigned to unseen trigrams
}

// unseenFloor is the shared log-probability for unseen trigrams. It must
// be identical across models: deriving it from each corpus size would
// penalize unseen trigrams more under larger training corpora, biasing
// classification of out-of-vocabulary text toward whatever language has
// the SHORTEST seed — exactly backwards.
const unseenFloor = -13.0

const ngramOrder = 3

var (
	defaultOnce sync.Once
	defaultInst *Classifier
)

// Default returns the shared classifier trained on the embedded seed
// corpora.
func Default() *Classifier {
	defaultOnce.Do(func() {
		defaultInst = New(seedCorpora())
	})
	return defaultInst
}

// New trains a Classifier from per-language seed text. Each corpus should
// be at least a few hundred characters; more text sharpens the model.
func New(corpora map[Language]string) *Classifier {
	c := &Classifier{models: make(map[Language]*ngramModel, len(corpora))}
	for lang := range corpora {
		c.langs = append(c.langs, lang)
	}
	sort.Slice(c.langs, func(i, j int) bool { return c.langs[i] < c.langs[j] })
	for _, lang := range c.langs {
		c.models[lang] = trainModel(corpora[lang])
	}
	return c
}

func trainModel(text string) *ngramModel {
	counts := make(map[string]int)
	total := 0
	for _, gram := range trigrams(text) {
		counts[gram]++
		total++
	}
	m := &ngramModel{logProb: make(map[string]float64, len(counts)), floor: unseenFloor}
	// Laplace smoothing over the observed vocabulary plus one unseen slot.
	denom := float64(total + len(counts) + 1)
	for gram, n := range counts {
		lp := math.Log(float64(n+1) / denom)
		if lp < unseenFloor {
			lp = unseenFloor
		}
		m.logProb[gram] = lp
	}
	return m
}

// trigrams normalizes text (lowercase, collapse whitespace and digits)
// and returns its character trigrams, padded at word boundaries.
func trigrams(text string) []string {
	norm := normalize(text)
	runes := []rune(norm)
	if len(runes) < ngramOrder {
		if len(runes) == 0 {
			return nil
		}
		return []string{string(runes)}
	}
	grams := make([]string, 0, len(runes)-ngramOrder+1)
	for i := 0; i+ngramOrder <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+ngramOrder]))
	}
	return grams
}

func normalize(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	lastSpace := true
	for _, r := range strings.ToLower(text) {
		switch {
		case r >= '0' && r <= '9':
			continue
		case r == ' ' || r == '\t' || r == '\n' || r == '\r' ||
			r == '.' || r == ',' || r == '!' || r == '?' || r == ';' || r == ':':
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		default:
			b.WriteRune(r)
			lastSpace = false
		}
	}
	return strings.TrimSpace(b.String())
}

// Classify returns the most likely language of text with a normalized
// confidence. Empty or unintelligible input defaults to English with zero
// confidence, mirroring langid.py's always-answer behaviour.
func (c *Classifier) Classify(text string) Result {
	grams := trigrams(text)
	if len(grams) == 0 {
		return Result{Lang: English, Confidence: 0}
	}
	type scored struct {
		lang Language
		ll   float64
	}
	scores := make([]scored, 0, len(c.langs))
	for _, lang := range c.langs {
		m := c.models[lang]
		ll := 0.0
		for _, g := range grams {
			if lp, ok := m.logProb[g]; ok {
				ll += lp
			} else {
				ll += m.floor
			}
		}
		scores = append(scores, scored{lang, ll})
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].ll > scores[j].ll })
	best := scores[0]
	// Normalize with the log-sum-exp trick for a softmax-style posterior.
	var z float64
	for _, s := range scores {
		z += math.Exp(s.ll - best.ll)
	}
	return Result{Lang: best.lang, Confidence: 1 / z}
}

// Distribution classifies every comment and returns the per-language
// fractions — the aggregate the paper reports (94% English, 2% German).
func (c *Classifier) Distribution(comments []string) map[Language]float64 {
	counts := make(map[Language]int)
	for _, comment := range comments {
		counts[c.Classify(comment).Lang]++
	}
	out := make(map[Language]float64, len(counts))
	if len(comments) == 0 {
		return out
	}
	for lang, n := range counts {
		out[lang] = float64(n) / float64(len(comments))
	}
	return out
}
