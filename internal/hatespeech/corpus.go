// Package hatespeech implements the §3.5.3 NLP pipeline: a three-class
// (hate / offensive / neither) comment classifier trained on a labeled
// corpus with the Davidson et al. (2017) class imbalance, oversampled
// with ADASYN, vectorized as 1- and 2-grams of cleaned stemmed tokens,
// and fit with a linear SVM tuned by grid search under 5-fold
// cross-validation. The real crowd-sourced tweet corpus is replaced by a
// synthetic one with the same size, imbalance, and — crucially — the same
// *confusion structure*: hate and offensive speech share vocabulary, so
// the learned classifier is good but imperfect (the paper reports
// F1 = 0.87, not 1.0).
package hatespeech

import (
	"math/rand"
	"strings"

	"dissenter/internal/lexicon"
)

// Label is a comment class.
type Label int

// The three classes, with the Davidson dataset's encoding order.
const (
	Hate Label = iota
	Offensive
	Neither
)

// String names the label.
func (l Label) String() string {
	switch l {
	case Hate:
		return "hate"
	case Offensive:
		return "offensive"
	case Neither:
		return "neither"
	}
	return "unknown"
}

// Davidson class sizes (Davidson et al. 2017, as cited in §3.5.3).
const (
	DavidsonHate      = 1194
	DavidsonOffensive = 16025
	DavidsonNeither   = 20499
)

// Corpus is a labeled training set.
type Corpus struct {
	Texts  []string
	Labels []Label
}

// Len returns the corpus size.
func (c Corpus) Len() int { return len(c.Texts) }

// SyntheticCorpus generates a labeled corpus with the Davidson imbalance
// at the given scale (scale 1 reproduces the full 37,718-sample corpus;
// tests use ~0.02). Generation is deterministic in seed.
func SyntheticCorpus(scale float64, seed int64) Corpus {
	if scale <= 0 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := newTweetGen(rng)
	var c Corpus
	add := func(n int, label Label, gen func() string) {
		for i := 0; i < n; i++ {
			c.Texts = append(c.Texts, gen())
			c.Labels = append(c.Labels, label)
		}
	}
	nh := scaled(DavidsonHate, scale)
	no := scaled(DavidsonOffensive, scale)
	nn := scaled(DavidsonNeither, scale)
	add(nh, Hate, g.hate)
	add(no, Offensive, g.offensive)
	add(nn, Neither, g.neither)
	// Shuffle so class blocks don't align with CV folds.
	perm := rng.Perm(c.Len())
	texts := make([]string, c.Len())
	labels := make([]Label, c.Len())
	for i, j := range perm {
		texts[i] = c.Texts[j]
		labels[i] = c.Labels[j]
	}
	c.Texts, c.Labels = texts, labels
	return c
}

func scaled(n int, scale float64) int {
	out := int(float64(n) * scale)
	if out < 8 {
		out = 8 // keep every class k-fold splittable at tiny scales
	}
	return out
}

// tweetGen composes short tweet-like texts from the shared lexicons.
type tweetGen struct {
	rng       *rand.Rand
	slurs     []string
	profanity []string
	insults   []string
	threats   []string
	positive  []string
	neutral   []string
	ambiguous []string
}

func newTweetGen(rng *rand.Rand) *tweetGen {
	dict := lexicon.Hatebase()
	return &tweetGen{
		rng:       rng,
		slurs:     dict.WordsByCategory(lexicon.CategorySlur),
		profanity: append(dict.WordsByCategory(lexicon.CategoryProfanity), lexicon.Profanity()...),
		insults:   lexicon.Insults(),
		threats:   lexicon.Threats(),
		positive:  lexicon.Positive(),
		neutral:   lexicon.Neutral(),
		ambiguous: dict.WordsByCategory(lexicon.CategoryAmbiguous),
	}
}

func (g *tweetGen) pick(list []string) string { return list[g.rng.Intn(len(list))] }

func (g *tweetGen) fill(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.pick(g.neutral))
	}
	return out
}

// hate tweets target a group with slurs and/or threats. A quarter are
// "implicit" hate with threats+insults but no dictionary slur — the hard
// cases that keep the classifier below perfect.
func (g *tweetGen) hate() string {
	words := g.fill(4 + g.rng.Intn(8))
	if g.rng.Float64() < 0.75 {
		words = append(words, g.pick(g.slurs))
		if g.rng.Float64() < 0.5 {
			words = append(words, g.pick(g.slurs))
		}
	}
	words = append(words, g.pick(g.threats))
	if g.rng.Float64() < 0.6 {
		words = append(words, g.pick(g.insults))
	}
	g.rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	return strings.Join(words, " ")
}

// offensive tweets are rude — insults and profanity — without group
// hatred. 10% contain an ambiguous dictionary term and 5% a slur used
// quotatively, overlapping the hate class's surface features.
func (g *tweetGen) offensive() string {
	words := g.fill(4 + g.rng.Intn(8))
	words = append(words, g.pick(g.insults))
	if g.rng.Float64() < 0.8 {
		words = append(words, g.pick(g.profanity))
	}
	if g.rng.Float64() < 0.5 {
		words = append(words, "you")
	}
	if g.rng.Float64() < 0.10 {
		words = append(words, g.pick(g.ambiguous))
	}
	if g.rng.Float64() < 0.10 {
		// Quotative/reclaimed slur use: offensive, not hate — the surface
		// overlap that produces real confusion between the classes.
		words = append(words, g.pick(g.slurs))
	}
	g.rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	return strings.Join(words, " ")
}

// neither tweets are ordinary chatter; 8% use profanity positively
// ("damn that's cool") and 6% mention ambiguous dictionary words
// innocently, which is exactly the dictionary scorer's false-positive
// surface.
func (g *tweetGen) neither() string {
	words := g.fill(5 + g.rng.Intn(10))
	if g.rng.Float64() < 0.5 {
		words = append(words, g.pick(g.positive))
	}
	if g.rng.Float64() < 0.08 {
		words = append(words, g.pick(g.profanity), g.pick(g.positive))
	}
	if g.rng.Float64() < 0.06 {
		words = append(words, g.pick(g.ambiguous))
	}
	if g.rng.Float64() < 0.05 {
		// Benign insult mention ("only an idiot would miss this deal").
		words = append(words, g.pick(g.insults))
	}
	g.rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	return strings.Join(words, " ")
}
