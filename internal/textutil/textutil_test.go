package textutil

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCleanStripsURLsAndMentions(t *testing.T) {
	in := "Check https://example.com/x?y=1 THIS out @someuser &amp; now www.foo.org DONE"
	got := Clean(in)
	want := "check this out now done"
	if got != want {
		t.Errorf("Clean = %q, want %q", got, want)
	}
}

func TestCleanPreservesWordInternal(t *testing.T) {
	// Cleaning must not mangle word-internal characters (the paper's
	// Pakistan/"paki" false-positive discussion depends on exact tokens).
	if got := Clean("Pakistan is a COUNTRY"); got != "pakistan is a country" {
		t.Errorf("Clean = %q", got)
	}
}

func TestCleanEmpty(t *testing.T) {
	if Clean("") != "" || Clean("   ") != "" {
		t.Error("Clean of blank input should be empty")
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, world!", []string{"hello", "world"}},
		{"don't stop", []string{"don't", "stop"}},
		{"'quoted'", []string{"quoted"}},
		{"a-b c_d", []string{"a", "b", "c", "d"}},
		{"ha ha ha", []string{"ha", "ha", "ha"}},
		{"", nil},
		{"!!!", nil},
		{"x9 2fast", []string{"x9", "2fast"}},
		{"Ümlaut über", []string{"ümlaut", "über"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNGrams(t *testing.T) {
	toks := []string{"a", "b", "c"}
	got := NGrams(toks, 2)
	want := []string{"a", "b", "c", "a b", "b c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams = %v, want %v", got, want)
	}
	if NGrams(toks, 0) != nil {
		t.Error("maxN=0 should return nil")
	}
	if got := NGrams([]string{"x"}, 3); !reflect.DeepEqual(got, []string{"x"}) {
		t.Errorf("short input: %v", got)
	}
}

// Published Porter test vectors (from Porter's paper and the canonical
// voc.txt/output.txt sample distribution).
func TestStemVectors(t *testing.T) {
	cases := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortAndNonASCII(t *testing.T) {
	for _, w := range []string{"a", "is", "be", "ü", "naïve", "ABC", "x-y"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	// Stemming a stem should usually be stable for dictionary matching to
	// work; check on a realistic vocabulary.
	words := []string{
		"running", "runner", "ran", "comments", "commenting", "censorship",
		"moderation", "platforms", "hateful", "toxicity", "banned",
	}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not stable: %q -> %q -> %q", w, once, twice)
		}
	}
}

func TestStemAll(t *testing.T) {
	got := StemAll([]string{"ponies", "cats"})
	want := []string{"poni", "cat"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("StemAll = %v, want %v", got, want)
	}
}

func TestQuickTokenizeLowercaseNoSeparators(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			if strings.ToLower(tok) != tok {
				return false
			}
			if strings.ContainsAny(tok, " \t\n.,!?") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStemNeverPanicsOrGrows(t *testing.T) {
	f := func(s string) bool {
		stem := Stem(strings.ToLower(s))
		return len(stem) <= len(s)+1 // step1b can append an 'e'
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNGramCount(t *testing.T) {
	// Property: for k tokens, NGrams(_, 2) yields k + max(0, k-1) grams.
	f := func(raw []string) bool {
		toks := raw
		for i := range toks {
			if toks[i] == "" {
				toks[i] = "x"
			}
		}
		k := len(toks)
		want := k
		if k >= 2 {
			want += k - 1
		}
		return len(NGrams(toks, 2)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	s := strings.Repeat("The quick brown fox jumps over the lazy dog! ", 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(s)
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"vietnamization", "running", "caresses", "electriciti", "falling"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}
