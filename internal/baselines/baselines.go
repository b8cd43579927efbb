// Package baselines generates the moderated-news-site comment corpora of
// Table 3 — NY Times and Daily Mail — used as comparison points for
// Dissenter's toxicity in §4.4. Both corpora come from the shared phrase
// machinery with platform-specific tone mixes: the NY Times corpus
// reflects strict moderation (rejected content never appears), the Daily
// Mail's looser norms admit more rudeness, and neither carries the hate
// density of an unmoderated overlay.
package baselines

import (
	"dissenter/internal/synth"
)

// Paper-scale corpus sizes (Table 3).
const (
	PaperNYTimes   = 4_995_119
	PaperDailyMail = 14_287_096
)

// Tone mixes per outlet. The orderings these imply are the Figure 7
// calibration: NYT < DailyMail < Reddit < Dissenter on LIKELY_TO_REJECT
// and SEVERE_TOXICITY.
var (
	// NYTimesMix: heavily moderated; almost nothing hateful survives.
	NYTimesMix = synth.ToneMix{Hateful: 0.001, Offensive: 0.015, Attack: 0.02, Positive: 0.30}
	// DailyMailMix: rowdier commentariat, still moderated.
	DailyMailMix = synth.ToneMix{Hateful: 0.006, Offensive: 0.06, Attack: 0.045, Positive: 0.20}
)

// Corpus is a labeled set of baseline comments.
type Corpus struct {
	Name     string
	Comments []string
	// NominalSize is the full dataset size at paper scale; Comments may
	// be a statistical sample of it (scoring 14M comments is pointless
	// when 20k draws pin the CDF).
	NominalSize int
}

// NYTimes generates the NY Times corpus with n sampled comments.
func NYTimes(n int, seed int64) Corpus {
	return generate("NY Times", NYTimesMix, n, PaperNYTimes, seed)
}

// DailyMail generates the Daily Mail corpus with n sampled comments.
func DailyMail(n int, seed int64) Corpus {
	return generate("Daily Mail", DailyMailMix, n, PaperDailyMail, seed)
}

func generate(name string, mix synth.ToneMix, n, nominal int, seed int64) Corpus {
	if n < 1 {
		n = 1
	}
	ts := synth.NewTextSampler(seed)
	comments := make([]string, n)
	for i := range comments {
		comments[i] = ts.MixedComment(mix)
	}
	return Corpus{Name: name, Comments: comments, NominalSize: nominal}
}
