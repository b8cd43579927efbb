package lexicon

import (
	"testing"

	"dissenter/internal/textutil"
)

func TestHatebaseSize(t *testing.T) {
	d := Hatebase()
	if d.Len() != HatebaseSize {
		t.Fatalf("dictionary has %d terms, want %d", d.Len(), HatebaseSize)
	}
}

func TestHatebaseDeterministic(t *testing.T) {
	a := generateHatebase()
	b := generateHatebase()
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.terms {
		if a.terms[i] != b.terms[i] {
			t.Fatalf("term %d differs: %v vs %v", i, a.terms[i], b.terms[i])
		}
	}
}

func TestHatebaseSharedInstance(t *testing.T) {
	if Hatebase() != Hatebase() {
		t.Fatal("Hatebase() should return a shared instance")
	}
}

func TestAmbiguousTermsPresent(t *testing.T) {
	d := Hatebase()
	for _, w := range []string{"queen", "pig", "skank"} {
		term, ok := d.MatchToken(w)
		if !ok {
			t.Errorf("ambiguous term %q missing", w)
			continue
		}
		if term.Category != CategoryAmbiguous {
			t.Errorf("%q category = %v, want ambiguous", w, term.Category)
		}
	}
}

func TestMatchTokenStems(t *testing.T) {
	d := Hatebase()
	// Plural/suffixed forms of dictionary words must match via stemming.
	if _, ok := d.MatchToken("queens"); !ok {
		t.Error("plural of dictionary word did not match")
	}
	if _, ok := d.MatchToken("pigs"); !ok {
		t.Error("plural of dictionary word did not match")
	}
}

func TestMatchTokenZSlang(t *testing.T) {
	d := Hatebase()
	// The paper: a hate word "succeeded with a z when using slang" must
	// still match.
	if _, ok := d.MatchToken("queenz"); !ok {
		t.Error("z-suffixed slang form did not match")
	}
	if _, ok := d.MatchToken("z"); ok {
		t.Error("bare z matched")
	}
}

func TestMatchTokenMiss(t *testing.T) {
	d := Hatebase()
	for _, w := range []string{"pakistan", "article", "wonderful", ""} {
		if _, ok := d.MatchToken(w); ok {
			t.Errorf("unexpected match for %q", w)
		}
	}
}

func TestCategoryMix(t *testing.T) {
	d := Hatebase()
	counts := map[Category]int{}
	for _, term := range d.terms {
		counts[term.Category]++
	}
	if counts[CategoryAmbiguous] != len(ambiguousTerms) {
		t.Errorf("ambiguous count = %d, want %d", counts[CategoryAmbiguous], len(ambiguousTerms))
	}
	if counts[CategorySlur] < counts[CategoryProfanity] || counts[CategoryProfanity] < counts[CategoryViolence] {
		t.Errorf("unexpected category mix: %v", counts)
	}
}

func TestStemKeysUnique(t *testing.T) {
	d := Hatebase()
	if len(d.byStem) != d.Len() {
		t.Errorf("stem collisions: %d stems for %d terms", len(d.byStem), d.Len())
	}
}

func TestPseudoWordsAreStemmable(t *testing.T) {
	// Every generated word should survive the tokenizer unchanged, so the
	// generator-produced comments are matchable by the scorer.
	d := Hatebase()
	for _, term := range d.terms {
		toks := textutil.Tokenize(term.Word)
		if len(toks) != 1 || toks[0] != term.Word {
			t.Fatalf("dictionary word %q does not tokenize to itself: %v", term.Word, toks)
		}
	}
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{
		CategorySlur:      "slur",
		CategoryProfanity: "profanity",
		CategoryViolence:  "violence",
		CategoryAmbiguous: "ambiguous",
		Category(99):      "unknown",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestWordsByCategory(t *testing.T) {
	d := Hatebase()
	slurs := d.WordsByCategory(CategorySlur)
	if len(slurs) == 0 {
		t.Fatal("no slur-category words")
	}
	for _, w := range slurs {
		term, ok := d.MatchToken(w)
		if !ok || term.Category != CategorySlur {
			t.Fatalf("WordsByCategory returned %q which does not match as slur", w)
		}
	}
}

func TestFixedListsNonEmptyAndLower(t *testing.T) {
	lists := map[string][]string{
		"Profanity":        Profanity(),
		"Insults":          Insults(),
		"Threats":          Threats(),
		"AuthorReferences": AuthorReferences(),
		"Positive":         Positive(),
		"Neutral":          Neutral(),
	}
	for name, list := range lists {
		if len(list) == 0 {
			t.Errorf("%s is empty", name)
		}
		for _, w := range list {
			for _, r := range w {
				if r >= 'A' && r <= 'Z' {
					t.Errorf("%s contains non-lowercase %q", name, w)
				}
			}
		}
	}
}

func BenchmarkMatchToken(b *testing.B) {
	d := Hatebase()
	words := []string{"queen", "pigs", "article", "government", "queenz"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.MatchToken(words[i%len(words)])
	}
}
