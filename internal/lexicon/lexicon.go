// Package lexicon provides the word lists behind the study's three
// comment classifiers and the synthetic comment generator.
//
// The paper uses the modified Hatebase dictionary of 1,027 hate terms
// (shared with Hine et al. 2017 and Zannettou et al. 2018). That
// dictionary is proprietary and, more importantly, full of real slurs we
// have no reason to reproduce. We substitute a *synthetic* dictionary:
// 1,000 deterministic pseudo-words (pronounceable but meaningless
// syllable compositions) plus 27 genuinely ambiguous English words that
// model the paper's "queen"/"pig"/"skank" false-positive discussion. The
// synthetic comment generator draws its "hateful" tokens from the same
// dictionary, so the measurement pipeline sees exactly the structure the
// paper describes — including the ambiguity-driven false positives —
// without a single real slur in the repository.
package lexicon

import (
	"math/rand"
	"sort"
	"sync"

	"dissenter/internal/textutil"
)

// Category classifies a dictionary term. Categories matter for the
// Perspective-style models: slur-category terms drive SEVERE_TOXICITY and
// IDENTITY_ATTACK-like scores, profanity drives OBSCENE, and ambiguous
// terms drive false positives.
type Category int

const (
	// CategorySlur marks strongly hateful terms.
	CategorySlur Category = iota
	// CategoryProfanity marks obscene-but-not-necessarily-hateful terms.
	CategoryProfanity
	// CategoryViolence marks violent/threatening terms.
	CategoryViolence
	// CategoryAmbiguous marks benign English words that appear in the
	// dictionary (the paper's "queen" and "pig" examples); matching them
	// is a false positive from a ground-truth perspective.
	CategoryAmbiguous
)

// String returns a short human-readable category name.
func (c Category) String() string {
	switch c {
	case CategorySlur:
		return "slur"
	case CategoryProfanity:
		return "profanity"
	case CategoryViolence:
		return "violence"
	case CategoryAmbiguous:
		return "ambiguous"
	}
	return "unknown"
}

// Term is one dictionary entry.
type Term struct {
	Word     string
	Category Category
}

// Dictionary is a set of hate terms indexed by Porter stem, the match key
// the pipeline uses after tokenizing and stemming comments (§3.5.1).
type Dictionary struct {
	terms   []Term
	byStem  map[string]Term
	byExact map[string]Term
}

// HatebaseSize is the size of the modified Hatebase dictionary the paper
// uses.
const HatebaseSize = 1027

// ambiguousTerms are real, benign English words included to model the
// dictionary's known false-positive surface.
var ambiguousTerms = []string{
	"queen", "pig", "skank", "snake", "rat", "dog", "cow", "ape",
	"monkey", "vermin", "parasite", "leech", "cockroach", "plague",
	"trash", "garbage", "scum", "filth", "savage", "animal", "beast",
	"mongrel", "swine", "weasel", "sheep", "cuck", "normie",
}

var (
	hatebaseOnce sync.Once
	hatebaseDict *Dictionary
)

// Hatebase returns the canonical synthetic 1,027-term dictionary. The
// result is shared and must not be mutated.
func Hatebase() *Dictionary {
	hatebaseOnce.Do(func() {
		hatebaseDict = generateHatebase()
	})
	return hatebaseDict
}

func generateHatebase() *Dictionary {
	rng := rand.New(rand.NewSource(0x0D155E17E5)) // fixed: dictionary is part of the spec
	need := HatebaseSize - len(ambiguousTerms)
	seen := make(map[string]bool, HatebaseSize)
	terms := make([]Term, 0, HatebaseSize)

	for _, w := range ambiguousTerms {
		terms = append(terms, Term{Word: w, Category: CategoryAmbiguous})
		seen[textutil.Stem(w)] = true
	}
	// 60% slurs, 25% profanity, 15% violence — roughly the complexion of
	// hate dictionaries reported in the literature.
	for len(terms) < len(ambiguousTerms)+need {
		w := pseudoWord(rng)
		stem := textutil.Stem(w)
		if seen[stem] {
			continue
		}
		seen[stem] = true
		var cat Category
		switch p := rng.Float64(); {
		case p < 0.60:
			cat = CategorySlur
		case p < 0.85:
			cat = CategoryProfanity
		default:
			cat = CategoryViolence
		}
		terms = append(terms, Term{Word: w, Category: cat})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].Word < terms[j].Word })
	return NewDictionary(terms)
}

// NewDictionary builds a Dictionary from terms, indexing each term by its
// Porter stem and exact form.
func NewDictionary(terms []Term) *Dictionary {
	d := &Dictionary{
		terms:   terms,
		byStem:  make(map[string]Term, len(terms)),
		byExact: make(map[string]Term, len(terms)),
	}
	for _, t := range terms {
		d.byStem[textutil.Stem(t.Word)] = t
		d.byExact[t.Word] = t
	}
	return d
}

// Len returns the number of terms.
func (d *Dictionary) Len() int { return len(d.terms) }

// MatchStem looks up a stemmed token.
func (d *Dictionary) MatchStem(stem string) (Term, bool) {
	t, ok := d.byStem[stem]
	return t, ok
}

// MatchToken stems the token and looks it up, also catching the slang
// "trailing z" evasion the paper highlights (a hate word suffixed with
// "z" instead of "s" to dodge naive matching).
func (d *Dictionary) MatchToken(token string) (Term, bool) {
	if t, ok := d.byStem[textutil.Stem(token)]; ok {
		return t, ok
	}
	if n := len(token); n > 2 && token[n-1] == 'z' {
		if t, ok := d.byStem[textutil.Stem(token[:n-1])]; ok {
			return t, ok
		}
	}
	return Term{}, false
}

// WordsByCategory returns the dictionary words in the given category.
func (d *Dictionary) WordsByCategory(cat Category) []string {
	var out []string
	for _, t := range d.terms {
		if t.Category == cat {
			out = append(out, t.Word)
		}
	}
	return out
}

// pseudoWord composes a pronounceable 2–4 syllable pseudo-word.
func pseudoWord(rng *rand.Rand) string {
	onsets := []string{"b", "d", "f", "g", "gr", "k", "kr", "m", "n", "p", "pl", "r", "s", "sk", "sn", "t", "tr", "v", "z", "zh", "dr", "br", "fl"}
	vowels := []string{"a", "e", "i", "o", "u", "oo", "ee", "au"}
	codas := []string{"", "b", "d", "g", "k", "l", "m", "n", "p", "r", "t", "x", "sh", "rk", "nt"}
	n := 2 + rng.Intn(3)
	w := make([]byte, 0, 12)
	for i := 0; i < n; i++ {
		w = append(w, onsets[rng.Intn(len(onsets))]...)
		w = append(w, vowels[rng.Intn(len(vowels))]...)
		if i == n-1 {
			w = append(w, codas[rng.Intn(len(codas))]...)
		}
	}
	return string(w)
}

// The following fixed word lists feed the Perspective-style models and
// the synthetic comment generator. They are ordinary English words — the
// "hate" axis lives entirely in the synthetic dictionary above.

// Profanity returns mildly obscene filler terms (we use censored-looking
// placeholders; what matters to the models is set membership, not
// shock value).
func Profanity() []string {
	return []string{
		"damn", "hell", "crap", "bullcrap", "freaking", "frigging",
		"bloody", "arse", "bollocks", "pissed", "sucks", "screwed",
	}
}

// Insults returns second-person insult terms driving ATTACK-style scores.
func Insults() []string {
	return []string{
		"idiot", "moron", "stupid", "dumb", "fool", "clown", "loser",
		"pathetic", "coward", "liar", "fraud", "shill", "sheep", "traitor",
		"disgusting", "worthless", "brainless", "spineless",
	}
}

// Threats returns violent/threatening terms driving SEVERE_TOXICITY.
func Threats() []string {
	return []string{
		"destroy", "eradicate", "exterminate", "purge", "eliminate",
		"crush", "hang", "deport", "annihilate", "wipe", "smash", "burn",
	}
}

// AuthorReferences returns phrases that target the author of the
// underlying article — the signal for the ATTACK_ON_AUTHOR model (§4.4.4).
func AuthorReferences() []string {
	return []string{
		"the author", "this author", "the writer", "this journalist",
		"the reporter", "whoever wrote this", "the so-called journalist",
		"this hack", "the editor",
	}
}

// Positive returns approving terms used by low-toxicity comments.
func Positive() []string {
	return []string{
		"great", "good", "excellent", "interesting", "insightful", "agree",
		"correct", "true", "important", "thanks", "wonderful", "brilliant",
		"finally", "exactly", "spot", "right",
	}
}

// Neutral returns topic vocabulary for comment bodies.
func Neutral() []string {
	return []string{
		"article", "video", "story", "news", "media", "report", "country",
		"government", "people", "president", "election", "policy", "court",
		"border", "economy", "money", "tax", "job", "school", "city",
		"state", "law", "police", "party", "vote", "speech", "platform",
		"comment", "censorship", "freedom", "internet", "browser", "site",
		"channel", "content", "creator", "community", "company", "world",
		"year", "time", "day", "week", "point", "fact", "truth", "question",
		"problem", "reason", "source", "evidence", "claim", "opinion",
	}
}
