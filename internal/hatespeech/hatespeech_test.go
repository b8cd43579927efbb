package hatespeech

import (
	"math"
	"strings"
	"testing"

	"dissenter/internal/lexicon"
	"dissenter/internal/ml"
)

func testCorpus() Corpus { return SyntheticCorpus(0.02, 1) }

func TestSyntheticCorpusProportions(t *testing.T) {
	c := SyntheticCorpus(0.1, 1)
	counts := map[Label]int{}
	for _, l := range c.Labels {
		counts[l]++
	}
	if counts[Hate] >= counts[Offensive] || counts[Offensive] >= counts[Neither] {
		t.Errorf("imbalance order broken: %v", counts)
	}
	// Ratios should approximate Davidson's 1194:16025:20499.
	ratio := float64(counts[Offensive]) / float64(counts[Hate])
	if ratio < 8 || ratio > 20 {
		t.Errorf("offensive/hate ratio = %.1f, want ≈13", ratio)
	}
}

func TestSyntheticCorpusDeterministic(t *testing.T) {
	a := SyntheticCorpus(0.01, 7)
	b := SyntheticCorpus(0.01, 7)
	if a.Len() != b.Len() {
		t.Fatal("sizes differ")
	}
	for i := range a.Texts {
		if a.Texts[i] != b.Texts[i] || a.Labels[i] != b.Labels[i] {
			t.Fatal("corpus not deterministic")
		}
	}
	c := SyntheticCorpus(0.01, 8)
	same := 0
	for i := range a.Texts {
		if i < c.Len() && a.Texts[i] == c.Texts[i] {
			same++
		}
	}
	if same == a.Len() {
		t.Error("different seeds produced identical corpora")
	}
}

func TestSyntheticCorpusMinimumClassSizes(t *testing.T) {
	c := SyntheticCorpus(0.0001, 1)
	counts := map[Label]int{}
	for _, l := range c.Labels {
		counts[l]++
	}
	for _, l := range []Label{Hate, Offensive, Neither} {
		if counts[l] < 8 {
			t.Errorf("class %v has %d samples at tiny scale", l, counts[l])
		}
	}
}

func TestHateTweetsContainDictionaryTerms(t *testing.T) {
	c := testCorpus()
	dict := lexicon.Hatebase()
	hateWithTerm, hateTotal := 0, 0
	for i, l := range c.Labels {
		if l != Hate {
			continue
		}
		hateTotal++
		for _, tok := range strings.Fields(c.Texts[i]) {
			if _, ok := dict.MatchToken(tok); ok {
				hateWithTerm++
				break
			}
		}
	}
	// Three quarters of hate tweets draw an explicit dictionary slur; at
	// the tiny test scale the binomial noise is wide, so gate loosely.
	frac := float64(hateWithTerm) / float64(hateTotal)
	if frac < 0.55 {
		t.Errorf("only %.0f%% of hate tweets contain dictionary terms", frac*100)
	}
	if frac == 1 {
		t.Error("every hate tweet contains a dictionary term; implicit-hate cases missing")
	}
}

func TestTrainAndPredict(t *testing.T) {
	c := testCorpus()
	cfg := DefaultTrainConfig()
	cfg.SVM.Epochs = 8
	clf := Train(c, cfg)
	if clf.VocabSize() == 0 {
		t.Fatal("empty vocabulary")
	}
	conf := ml.NewConfusion(labelsToInts(c.Labels), labelsToInts(clf.PredictAll(c.Texts)))
	if acc := conf.Accuracy(); acc < 0.85 {
		t.Errorf("training accuracy %.3f too low\n%s", acc, conf)
	}
}

func TestProbaSumsToOne(t *testing.T) {
	clf := Train(testCorpus(), DefaultTrainConfig())
	p := clf.Proba("you are a stupid pathetic idiot")
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v: %v", sum, p)
	}
	if len(p) != 3 {
		t.Errorf("want 3 classes, got %v", p)
	}
}

func TestCrossValidateQuality(t *testing.T) {
	// The paper reports F1 = 0.87 with 5-fold CV. The synthetic corpus is
	// built to land in a realistic band: clearly learnable, clearly not
	// perfectly separable.
	c := testCorpus()
	cfg := DefaultTrainConfig()
	cfg.SVM.Epochs = 8
	res := CrossValidate(c, 5, cfg)
	if len(res.FoldF1) != 5 {
		t.Fatalf("folds = %d", len(res.FoldF1))
	}
	if res.MeanF1 < 0.75 {
		t.Errorf("5-fold weighted F1 = %.3f, want >= 0.75", res.MeanF1)
	}
	if res.MeanF1 > 0.995 {
		t.Errorf("5-fold weighted F1 = %.3f — corpus trivially separable, confusion structure lost", res.MeanF1)
	}
}

func TestADASYNImprovesMinorityRecall(t *testing.T) {
	// Ablation: with the 13:1 imbalance, ADASYN should improve hate-class
	// recall (averaged over folds) versus no oversampling.
	c := testCorpus()
	base := DefaultTrainConfig()
	base.ADASYN = nil
	base.SVM.Epochs = 8
	with := DefaultTrainConfig()
	with.SVM.Epochs = 8

	recall := func(res ml.KFoldResult) float64 {
		var sum float64
		for _, conf := range res.Confusions {
			sum += conf.Recall(int(Hate))
		}
		return sum / float64(len(res.Confusions))
	}
	rBase := recall(CrossValidate(c, 3, base))
	rWith := recall(CrossValidate(c, 3, with))
	if rWith < rBase-0.05 {
		t.Errorf("ADASYN hurt minority recall: %.3f -> %.3f", rBase, rWith)
	}
}

func TestLabelString(t *testing.T) {
	if Label(9).String() != "unknown" {
		t.Error("unknown label string")
	}
}

func BenchmarkTrain(b *testing.B) {
	c := SyntheticCorpus(0.01, 1)
	cfg := DefaultTrainConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(c, cfg)
	}
}

func BenchmarkPredict(b *testing.B) {
	clf := Train(SyntheticCorpus(0.01, 1), DefaultTrainConfig())
	text := "you are a stupid pathetic idiot and the media lies"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Predict(text)
	}
}
