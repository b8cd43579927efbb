// The paper's ablations: each methodological choice the paper makes, run
// against the alternative it replaced — ADASYN vs none, 1+2-grams vs
// unigrams, the dictionary with and without its ambiguous terms and its
// stem matching, the grid search, exhaustive ID enumeration vs the
// follower-graph BFS — plus the §3.5.3 training cost. Each prints its
// comparison once and reports its key quantities as custom metrics.
// What the paper's tables and figures say is not here: dissenter-repro
// prints them and internal/repro's TestReportGolden pins every number.
//
// The corpus benchmarks read a synthetic deployment generated once at
// the scale given by DISSENTER_SCALE (default 1/64).
package dissenter_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"

	"dissenter/internal/gabapi"
	"dissenter/internal/gabcrawl"
	"dissenter/internal/hatespeech"
	"dissenter/internal/ids"
	"dissenter/internal/lexicon"
	"dissenter/internal/ml"
	"dissenter/internal/platform"
	"dissenter/internal/synth"
	"dissenter/internal/toxdict"
)

var (
	fixtureOnce sync.Once
	fixture     *synth.Output
	printed     sync.Map
)

func benchScale() float64 {
	if s := os.Getenv("DISSENTER_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return synth.DefaultScale
}

// deployment is the shared synthetic platform. The dictionary ablations
// score its comment texts directly: the crawl mirrors them byte for
// byte (dissentercrawl's TestCampaignCommentTextFidelity), so running
// the campaign first would change no count.
func deployment() *synth.Output {
	fixtureOnce.Do(func() {
		fixture = synth.Generate(synth.NewConfig(benchScale(), 1))
	})
	return fixture
}

func commentTexts() []string {
	var texts []string
	deployment().DB.RangeComments(func(c *platform.Comment) bool {
		texts = append(texts, c.Text)
		return true
	})
	return texts
}

// printOnce emits an artifact the first time a bench runs.
func printOnce(name string, render func()) {
	if _, loaded := printed.LoadOrStore(name, true); !loaded {
		render()
	}
}

func BenchmarkSVMTraining(b *testing.B) {
	// §3.5.3 at a fixed training scale so the bench is comparable across
	// corpus scales.
	c := hatespeech.SyntheticCorpus(0.05, 1)
	cfg := hatespeech.DefaultTrainConfig()
	var res ml.KFoldResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = hatespeech.CrossValidate(c, 5, cfg)
	}
	b.ReportMetric(res.MeanF1, "weighted_f1")
	printOnce("s6", func() {
		fmt.Printf("\nS6 NLP: 5-fold weighted F1 %.3f (paper 0.87)\n", res.MeanF1)
	})
}

// ---------------------------------------------------------------------
// Ablations

// BenchmarkAblationADASYN quantifies what the oversampling buys: minority
// (hate) recall with and without ADASYN.
func BenchmarkAblationADASYN(b *testing.B) {
	c := hatespeech.SyntheticCorpus(0.05, 1)
	with := hatespeech.DefaultTrainConfig()
	without := hatespeech.DefaultTrainConfig()
	without.ADASYN = nil
	recall := func(res ml.KFoldResult) float64 {
		var sum float64
		for _, conf := range res.Confusions {
			sum += conf.Recall(int(hatespeech.Hate))
		}
		return sum / float64(len(res.Confusions))
	}
	var rWith, rWithout float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rWith = recall(hatespeech.CrossValidate(c, 3, with))
		rWithout = recall(hatespeech.CrossValidate(c, 3, without))
	}
	b.ReportMetric(rWith, "hate_recall_adasyn")
	b.ReportMetric(rWithout, "hate_recall_baseline")
	printOnce("ab1", func() {
		fmt.Printf("\nAblation ADASYN: hate recall %.3f with vs %.3f without\n", rWith, rWithout)
	})
}

// BenchmarkAblationNGramOrder compares the paper's 1+2-gram features
// against unigrams only.
func BenchmarkAblationNGramOrder(b *testing.B) {
	c := hatespeech.SyntheticCorpus(0.05, 1)
	f1For := func(maxN int) float64 {
		vec := ml.NewVectorizer()
		vec.MaxN = maxN
		xs := vec.FitTransform(c.Texts)
		ys := make([]int, len(c.Labels))
		for i, l := range c.Labels {
			ys[i] = int(l)
		}
		ds := ml.Dataset{X: xs, Y: ys}
		return ml.CrossValidate(ds, vec.VocabSize(), 3, ml.DefaultSVMConfig(), nil).MeanF1
	}
	var uni, bi float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uni = f1For(1)
		bi = f1For(2)
	}
	b.ReportMetric(uni, "f1_unigram")
	b.ReportMetric(bi, "f1_bigram")
	printOnce("ab2", func() {
		fmt.Printf("\nAblation n-grams: F1 %.3f (1-gram) vs %.3f (1+2-gram)\n", uni, bi)
	})
}

// BenchmarkAblationAmbiguousTerms quantifies the dictionary's known
// false-positive surface (the paper's "queen"/"pig" discussion).
func BenchmarkAblationAmbiguousTerms(b *testing.B) {
	texts := commentTexts()
	full := toxdict.Default()
	strict := toxdict.Default(toxdict.WithoutAmbiguous())
	var fullHits, strictHits int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullHits, strictHits = 0, 0
		for _, txt := range texts {
			if full.Score(txt) > 0 {
				fullHits++
			}
			if strict.Score(txt) > 0 {
				strictHits++
			}
		}
	}
	b.ReportMetric(float64(fullHits), "matches_full")
	b.ReportMetric(float64(strictHits), "matches_no_ambiguous")
	printOnce("ab3", func() {
		fmt.Printf("\nAblation ambiguous terms: %d comments match full dictionary, %d without ambiguous terms (%.1f%% are potential FPs)\n",
			fullHits, strictHits, 100*float64(fullHits-strictHits)/float64(max(1, fullHits)))
	})
}

// BenchmarkAblationStemming compares dictionary hit rates with and
// without the Porter-stem match path by scoring raw-token matches only.
func BenchmarkAblationStemming(b *testing.B) {
	texts := commentTexts()
	dict := lexicon.Hatebase()
	exactOnly := func(txt string) bool {
		for _, tok := range tokenize(txt) {
			if _, ok := dict.MatchStem(tok); ok { // raw token as stem key
				return true
			}
		}
		return false
	}
	stemmed := toxdict.Default()
	var stemHits, exactHits int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stemHits, exactHits = 0, 0
		for _, txt := range texts {
			if stemmed.Score(txt) > 0 {
				stemHits++
			}
			if exactOnly(txt) {
				exactHits++
			}
		}
	}
	b.ReportMetric(float64(stemHits), "matches_stemmed")
	b.ReportMetric(float64(exactHits), "matches_exact")
	printOnce("ab4", func() {
		fmt.Printf("\nAblation stemming: %d comments match with stemming vs %d raw-token (+%.1f%%)\n",
			stemHits, exactHits, 100*float64(stemHits-exactHits)/float64(max(1, exactHits)))
	})
}

// tokenize is a minimal splitter for the stemming ablation.
func tokenize(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		isWord := i < len(s) && (s[i] >= 'a' && s[i] <= 'z' || s[i] >= 'A' && s[i] <= 'Z')
		if isWord && start < 0 {
			start = i
		}
		if !isWord && start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	return out
}

// BenchmarkGridSearch exercises the paper's hyper-parameter tuning
// ("using grid search to tune the hyperparameters"): a lambda/epochs
// sweep under cross-validation.
func BenchmarkGridSearch(b *testing.B) {
	c := hatespeech.SyntheticCorpus(0.02, 1)
	vec := ml.NewVectorizer()
	xs := vec.FitTransform(c.Texts)
	ys := make([]int, len(c.Labels))
	for i, l := range c.Labels {
		ys[i] = int(l)
	}
	ds := ml.Dataset{X: xs, Y: ys}
	var points []ml.GridPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = ml.GridSearch(ds, vec.VocabSize(), 3,
			[]float64{1e-3, 1e-4, 1e-5}, []int{3, 6}, nil, 1)
	}
	b.ReportMetric(points[0].MeanF1, "best_f1")
	b.ReportMetric(points[0].Config.Lambda, "best_lambda")
	printOnce("grid", func() {
		fmt.Printf("\nGrid search: best F1 %.3f at lambda=%g epochs=%d (of %d points)\n",
			points[0].MeanF1, points[0].Config.Lambda, points[0].Config.Epochs, len(points))
	})
}

// BenchmarkAblationEnumVsBFS quantifies §3.1's methodology switch: the
// failed follower-graph harvest versus exhaustive ID enumeration.
func BenchmarkAblationEnumVsBFS(b *testing.B) {
	db := deployment().DB
	srv := httptest.NewServer(gabapi.NewServer(db, gabapi.WithRateLimit(0, 0)))
	defer srv.Close()
	client := gabcrawl.New(srv.URL, srv.Client())
	ctx := context.Background()
	var enum, bfs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, err := client.Enumerate(ctx, db.MaxGabID(), 16)
		if err != nil {
			b.Fatal(err)
		}
		walked, err := client.CrawlFollowerGraph(ctx, []ids.GabID{2}, 10, 16)
		if err != nil {
			b.Fatal(err)
		}
		enum, bfs = len(full), len(walked)
	}
	b.ReportMetric(float64(enum), "enumerated")
	b.ReportMetric(float64(bfs), "bfs_found")
	printOnce("ab5", func() {
		fmt.Printf("\nAblation §3.1 harvest method: enumeration %d vs follower-BFS %d accounts (%.1f%% coverage) — why the paper switched\n",
			enum, bfs, 100*float64(bfs)/float64(max(1, enum)))
	})
}
