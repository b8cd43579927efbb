// Package allsides models the Allsides media-bias ratings used in §4.4.4
// to condition comment toxicity on the political lean of the underlying
// URL. Allsides rates mainstream outlets only, so video-sharing and
// social-media domains — the bulk of Dissenter URLs — carry no rating and
// fall into the NotRanked bucket (the paper: ~1M of 1.68M comments land
// on unranked URLs).
package allsides

import "dissenter/internal/urlkit"

// Bias is an Allsides media-bias category.
type Bias int

// Bias categories in left-to-right presentation order, plus NotRanked.
const (
	Left Bias = iota
	LeftCenter
	Center
	RightCenter
	Right
	NotRanked
)

// Categories lists the ranked categories in presentation order (left to
// right), excluding NotRanked.
func Categories() []Bias { return []Bias{Left, LeftCenter, Center, RightCenter, Right} }

// AllCategories lists every bucket including NotRanked, in the order the
// paper's Figure 8 presents them.
func AllCategories() []Bias {
	return []Bias{Left, LeftCenter, Center, RightCenter, Right, NotRanked}
}

// String names the bias bucket the way Figure 8 labels it.
func (b Bias) String() string {
	switch b {
	case Left:
		return "Left"
	case LeftCenter:
		return "Left-Center"
	case Center:
		return "Center"
	case RightCenter:
		return "Right-Center"
	case Right:
		return "Right"
	}
	return "Not Ranked"
}

// ratings maps registrable domains of the synthetic web universe to bias
// buckets. Values follow Allsides' published ratings for outlets that
// exist; synthetic fringe domains are rated to match their generated
// slant. Video/social platforms are deliberately absent (NotRanked).
var ratings = map[string]Bias{
	// Real-world outlets appearing in Table 2 and the baselines.
	"foxnews.com":         Right,
	"breitbart.com":       Right,
	"zerohedge.com":       Right,
	"dailymail.co.uk":     RightCenter,
	"washingtontimes.com": RightCenter,
	"wsj.com":             Center,
	"bbc.co.uk":           Center,
	"reuters.com":         Center,
	"apnews.com":          Center,
	"usatoday.com":        Center,
	"nytimes.com":         LeftCenter,
	"theguardian.com":     LeftCenter,
	"washingtonpost.com":  LeftCenter,
	"nbcnews.com":         LeftCenter,
	"cnn.com":             Left,
	"msnbc.com":           Left,
	"huffpost.com":        Left,
	"vox.com":             Left,
	// Synthetic outlets generated by internal/synth; their slant is part
	// of the corpus specification.
	"liberty-ledger.com":    Right,
	"patriot-dispatch.com":  Right,
	"heartland-herald.com":  RightCenter,
	"capital-chronicle.com": Center,
	"metro-monitor.com":     Center,
	"harbor-tribune.com":    LeftCenter,
	"progress-post.com":     Left,
	"peoples-gazette.com":   Left,
}

// Rate returns the bias of the outlet behind rawurl, or NotRanked when
// Allsides does not rate the domain (social media, video platforms,
// fringe aggregation sites, and everything unknown).
func Rate(rawurl string) Bias {
	return RateDomain(urlkit.Domain(rawurl))
}

// RateDomain looks up a registrable domain directly.
func RateDomain(domain string) Bias {
	if b, ok := ratings[domain]; ok {
		return b
	}
	return NotRanked
}
