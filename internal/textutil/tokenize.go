// Package textutil provides the text-processing primitives shared by the
// comment-classification pipelines of §3.5: a social-media-aware
// tokenizer, the Porter stemming algorithm, word n-gram extraction, and
// comment cleaning. The paper tokenizes and stems each Dissenter comment
// before matching against the Hatebase dictionary and before building the
// 1- and 2-gram features of its SVM classifier.
package textutil

import (
	"strings"
	"unicode"
)

// Clean normalizes a raw comment for classification: it lower-cases the
// text, strips URLs, @-mentions, and HTML entities, and collapses runs of
// whitespace. Cleaning is deliberately conservative — hate-speech
// classification is sensitive to token mangling (the paper's "paki"
// substring and "skank" examples), so Clean never rewrites word-internal
// characters.
func Clean(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	fields := strings.Fields(s)
	for _, f := range fields {
		switch {
		case strings.HasPrefix(f, "http://"), strings.HasPrefix(f, "https://"),
			strings.HasPrefix(f, "www."):
			continue
		case strings.HasPrefix(f, "@") && len(f) > 1:
			continue
		case strings.HasPrefix(f, "&") && strings.HasSuffix(f, ";") && len(f) <= 8:
			continue // HTML entity such as &amp; or &quot;
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strings.ToLower(f))
	}
	return b.String()
}

// Tokenize splits s into lowercase word tokens. A token is a maximal run
// of letters, digits, and word-internal apostrophes. Everything else is a
// separator. Tokenize(Clean(comment)) is the canonical pipeline front end.
func Tokenize(s string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(unicode.ToLower(r))
		case r == '\'' && cur.Len() > 0 && i+1 < len(runes) && unicode.IsLetter(runes[i+1]):
			// Keep word-internal apostrophes ("don't") but not quotes.
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// NGrams returns the word n-grams of tokens for n in [1, maxN], joined
// with a single space. For maxN = 2 this is the 1-gram + 2-gram feature
// space of the paper's SVM (§3.5.3). The result preserves order: all
// 1-grams first, then 2-grams, and so on.
func NGrams(tokens []string, maxN int) []string {
	if maxN < 1 {
		return nil
	}
	var grams []string
	for n := 1; n <= maxN; n++ {
		if len(tokens) < n {
			break
		}
		for i := 0; i+n <= len(tokens); i++ {
			grams = append(grams, strings.Join(tokens[i:i+n], " "))
		}
	}
	return grams
}

// StemAll applies the Porter stemmer to every token, returning a new
// slice.
func StemAll(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = Stem(t)
	}
	return out
}
