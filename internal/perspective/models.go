// Package perspective reimplements the slice of Google's Perspective API
// the paper relies on (§3.5.2, §4.3, §4.4): the SEVERE_TOXICITY, OBSCENE,
// LIKELY_TO_REJECT, and ATTACK_ON_AUTHOR models. The real API is an
// external paid service; we substitute deterministic lexical-regression
// models with the same interface — callers score comments either in
// process or over HTTP through a simulated API endpoint and client, so
// the measurement pipeline still "outsources" scoring exactly as the
// paper describes.
//
// The models are calibrated for *relative* behaviour, which is all the
// paper's findings depend on: LIKELY_TO_REJECT fires on any norm
// violation (it models NY Times moderator rejection and is the most
// sensitive), SEVERE_TOXICITY fires on hateful/threatening language and
// "is less sensitive to positive uses of profanity", OBSCENE tracks
// profanity, and ATTACK_ON_AUTHOR tracks insults aimed at the author of
// the underlying article.
package perspective

import (
	"hash/fnv"
	"math"
	"strings"

	"dissenter/internal/lexicon"
	"dissenter/internal/textutil"
)

// Model names the Perspective attributes the study requests.
type Model string

// The four models the paper uses.
const (
	SevereToxicity Model = "SEVERE_TOXICITY"
	Obscene        Model = "OBSCENE"
	LikelyToReject Model = "LIKELY_TO_REJECT"
	AttackOnAuthor Model = "ATTACK_ON_AUTHOR"
)

// Valid reports whether m is a supported attribute.
func (m Model) Valid() bool {
	switch m {
	case SevereToxicity, Obscene, LikelyToReject, AttackOnAuthor:
		return true
	}
	return false
}

// features are the per-comment lexical measurements all models share.
type features struct {
	tokens    int
	slur      float64 // dictionary slur+violence density (per token)
	ambiguous float64 // ambiguous dictionary term density
	profanity float64 // obscenity density (dictionary profanity + mild list)
	insult    float64 // insult-term density
	threat    float64 // violent/threatening verb density
	positive  float64 // approving-term density
	secondPer float64 // second-person pronoun density
	authorRef float64 // 1 if the comment references the article's author
	caps      float64 // fraction of letters that are upper case
	exclaim   float64 // '!' per token
	jitter    float64 // deterministic per-comment noise in [0,1)
}

var (
	profanitySet = toSet(lexicon.Profanity())
	insultSet    = toSet(lexicon.Insults())
	threatSet    = toSet(lexicon.Threats())
	positiveSet  = toSet(lexicon.Positive())
	secondSet    = map[string]bool{"you": true, "your": true, "yours": true, "u": true, "ur": true}
)

func toSet(words []string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

func extract(text string) features {
	var f features
	letters, upper := 0, 0
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z':
			letters++
		case r >= 'A' && r <= 'Z':
			letters++
			upper++
		case r == '!':
			f.exclaim++
		}
	}
	if letters > 0 {
		f.caps = float64(upper) / float64(letters)
	}

	lower := strings.ToLower(text)
	for _, ref := range lexicon.AuthorReferences() {
		if strings.Contains(lower, ref) {
			f.authorRef = 1
			break
		}
	}

	tokens := textutil.Tokenize(textutil.Clean(text))
	f.tokens = len(tokens)
	if f.tokens == 0 {
		return f
	}
	dict := lexicon.Hatebase()
	var slur, ambiguous, profane, insult, threat, positive, second float64
	for _, tok := range tokens {
		if term, ok := dict.MatchToken(tok); ok {
			switch term.Category {
			case lexicon.CategorySlur, lexicon.CategoryViolence:
				slur++
			case lexicon.CategoryProfanity:
				profane++
			case lexicon.CategoryAmbiguous:
				ambiguous++
			}
			continue
		}
		switch {
		case profanitySet[tok]:
			profane++
		case insultSet[tok]:
			insult++
		case threatSet[tok]:
			threat++
		case positiveSet[tok]:
			positive++
		case secondSet[tok]:
			second++
		}
	}
	n := float64(f.tokens)
	f.slur = slur / n
	f.ambiguous = ambiguous / n
	f.profanity = profane / n
	f.insult = insult / n
	f.threat = threat / n
	f.positive = positive / n
	f.secondPer = second / n
	f.exclaim /= n

	h := fnv.New64a()
	h.Write([]byte(text))
	f.jitter = float64(h.Sum64()%1000000) / 1000000
	return f
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// clamp01 pins v into [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Score runs one model over a comment, returning a value in [0, 1].
// Scoring is deterministic: the same text always yields the same score.
func Score(m Model, text string) float64 {
	f := extract(text)
	if f.tokens == 0 {
		return 0
	}
	noise := (f.jitter - 0.5) * 0.10 // ±0.05 spread so CDFs are smooth
	switch m {
	case SevereToxicity:
		// Driven by hateful and threatening language; profanity alone
		// ("damn, that's cool") moves it little; approval pulls it down.
		x := -2.6 + 34*f.slur + 16*f.threat + 7*f.insult + 2.5*f.ambiguous +
			1.2*f.profanity + 1.5*f.caps - 5*f.positive
		return clamp01(sigmoid(x) + noise)
	case Obscene:
		x := -2.8 + 30*f.profanity + 8*f.slur + 2*f.insult + f.exclaim
		return clamp01(sigmoid(x) + noise)
	case LikelyToReject:
		// NYT moderators reject nearly any norm violation: insults,
		// profanity, hate, shouting, personal attacks.
		x := -1.1 + 26*f.slur + 14*f.insult + 11*f.profanity + 12*f.threat +
			5*f.ambiguous + 3.5*f.caps + 2.2*f.exclaim + 2.0*f.secondPer -
			6*f.positive
		return clamp01(sigmoid(x) + noise)
	case AttackOnAuthor:
		// Requires the comment to be *about the author* AND insulting;
		// a bare author mention is nearly neutral, insults amplify
		// strongly when aimed at the author.
		x := -3.4 + 1.8*f.authorRef + f.insult*(8+30*f.authorRef) +
			2.5*f.secondPer + 4*f.slur - 3*f.positive
		return clamp01(sigmoid(x) + noise)
	}
	return 0
}

// ScoreAll runs every requested model over a comment.
func ScoreAll(text string, models []Model) map[Model]float64 {
	out := make(map[Model]float64, len(models))
	for _, m := range models {
		out[m] = Score(m, text)
	}
	return out
}
