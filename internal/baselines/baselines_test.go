package baselines

import (
	"testing"

	"dissenter/internal/perspective"
	"dissenter/internal/stats"
)

func TestSizesAndDeterminism(t *testing.T) {
	a := NYTimes(500, 1)
	b := NYTimes(500, 1)
	if len(a.Comments) != 500 || a.Name != "NY Times" {
		t.Fatalf("corpus = %q n=%d", a.Name, len(a.Comments))
	}
	for i := range a.Comments {
		if a.Comments[i] != b.Comments[i] {
			t.Fatal("not deterministic")
		}
	}
	if a.NominalSize != PaperNYTimes {
		t.Errorf("NominalSize = %d, want the paper's %d", a.NominalSize, PaperNYTimes)
	}
	if NYTimes(0, 1).Comments == nil {
		t.Error("n<1 should clamp to 1")
	}
}

func TestModerationOrdering(t *testing.T) {
	// The Figure 7 precondition: NYT comments are least likely to be
	// rejected, Daily Mail sits above them.
	const n = 3000
	nyt := NYTimes(n, 2)
	dm := DailyMail(n, 3)
	score := func(comments []string) float64 {
		var sum float64
		for _, c := range comments {
			sum += perspective.Score(perspective.LikelyToReject, c)
		}
		return sum / float64(len(comments))
	}
	nytMean, dmMean := score(nyt.Comments), score(dm.Comments)
	if nytMean >= dmMean {
		t.Errorf("LIKELY_TO_REJECT means: NYT %.3f >= DailyMail %.3f", nytMean, dmMean)
	}
}

func TestSevereToxicityLow(t *testing.T) {
	// Both baselines must have thin severe-toxicity tails compared to the
	// 20%-above-0.5 Dissenter figure.
	for _, c := range []Corpus{NYTimes(3000, 4), DailyMail(3000, 5)} {
		scores := make([]float64, len(c.Comments))
		for i, text := range c.Comments {
			scores[i] = perspective.Score(perspective.SevereToxicity, text)
		}
		e := stats.NewECDF(scores)
		if frac := e.FractionAbove(0.5); frac > 0.10 {
			t.Errorf("%s: %.1f%% of comments >= 0.5 severe toxicity, want < 10%%", c.Name, frac*100)
		}
	}
}
