package langid

import (
	"testing"
	"testing/quick"
)

// Held-out sentences, not present in the seed corpora.
var heldOut = map[Language][]string{
	English: {
		"the new browser lets anyone comment on any website without permission",
		"nobody can moderate what users say in the hidden overlay",
		"she walked to the store and bought some bread for dinner tonight",
	},
	German: {
		"der neue browser erlaubt es jedem ohne erlaubnis auf jeder webseite zu kommentieren",
		"niemand kann moderieren was die nutzer in der versteckten ebene sagen",
		"sie ging zum laden und kaufte etwas brot für das abendessen heute",
	},
	French: {
		"le nouveau navigateur permet à chacun de commenter n'importe quel site sans permission",
		"personne ne peut modérer ce que disent les utilisateurs dans la couche cachée",
	},
	Spanish: {
		"el nuevo navegador permite a cualquiera comentar en cualquier sitio sin permiso",
		"nadie puede moderar lo que dicen los usuarios en la capa oculta",
	},
	Italian: {
		"il nuovo browser permette a chiunque di commentare qualsiasi sito senza permesso",
		"nessuno può moderare ciò che dicono gli utenti nel livello nascosto",
	},
}

func TestClassifyHeldOut(t *testing.T) {
	c := Default()
	for lang, sentences := range heldOut {
		for _, s := range sentences {
			got := c.Classify(s)
			if got.Lang != lang {
				t.Errorf("Classify(%.40q) = %s (conf %.2f), want %s", s, got.Lang, got.Confidence, lang)
			}
		}
	}
}

func TestClassifyEmpty(t *testing.T) {
	c := Default()
	r := c.Classify("")
	if r.Lang != English || r.Confidence != 0 {
		t.Errorf("empty input: %+v", r)
	}
	r = c.Classify("12345 678")
	if r.Lang != English {
		t.Errorf("digit-only input classified as %s", r.Lang)
	}
}

func TestConfidenceBounds(t *testing.T) {
	c := Default()
	for _, s := range []string{"hello there my friend", "der hund läuft schnell durch den wald", "x"} {
		r := c.Classify(s)
		if r.Confidence < 0 || r.Confidence > 1 {
			t.Errorf("Classify(%q).Confidence = %v", s, r.Confidence)
		}
	}
}

func TestLongerTextHigherConfidence(t *testing.T) {
	c := Default()
	short := c.Classify("the government said")
	long := c.Classify("the government said that the new policy would take effect next year and many people disagreed with the decision")
	if long.Lang != English || short.Lang != English {
		t.Skip("classification differs; confidence comparison meaningless")
	}
	if long.Confidence < short.Confidence {
		t.Errorf("long text confidence %.3f < short text %.3f", long.Confidence, short.Confidence)
	}
}

func TestDistribution(t *testing.T) {
	c := Default()
	comments := []string{
		"the president spoke about the economy today",
		"many people disagree with the new policy decision",
		"die regierung hat eine neue politik angekündigt",
		"the committee will meet again next month",
	}
	dist := c.Distribution(comments)
	if dist[English] != 0.75 {
		t.Errorf("en fraction = %v, want 0.75", dist[English])
	}
	if dist[German] != 0.25 {
		t.Errorf("de fraction = %v, want 0.25", dist[German])
	}
	if len(c.Distribution(nil)) != 0 {
		t.Error("empty corpus should give empty distribution")
	}
}

func TestNormalize(t *testing.T) {
	got := normalize("  Hello,   WORLD! 123 foo\nbar  ")
	want := "hello world foo bar"
	if got != want {
		t.Errorf("normalize = %q, want %q", got, want)
	}
}

func TestTrigramsShortInput(t *testing.T) {
	if g := trigrams(""); g != nil {
		t.Errorf("trigrams(\"\") = %v", g)
	}
	if g := trigrams("ab"); len(g) != 1 || g[0] != "ab" {
		t.Errorf("trigrams(\"ab\") = %v", g)
	}
	if g := trigrams("abcd"); len(g) != 2 {
		t.Errorf("trigrams(\"abcd\") = %v", g)
	}
}

func TestQuickClassifyTotal(t *testing.T) {
	// Property: the classifier answers for any input without panicking and
	// always returns a supported language with confidence in [0, 1].
	c := Default()
	// Which language wins a likelihood tie depends on c.langs order, so
	// that order must not come from map iteration: all seven, sorted.
	if len(c.langs) != 7 {
		t.Fatalf("got %d languages", len(c.langs))
	}
	supported := map[Language]bool{}
	for i, l := range c.langs {
		if i > 0 && c.langs[i-1] >= l {
			t.Fatalf("languages not sorted: %v", c.langs)
		}
		supported[l] = true
	}
	f := func(s string) bool {
		r := c.Classify(s)
		return supported[r.Lang] && r.Confidence >= 0 && r.Confidence <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClassify(b *testing.B) {
	c := Default()
	s := "the government announced a new policy this week and many people disagreed with the decision"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(s)
	}
}
