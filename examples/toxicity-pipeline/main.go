// Toxicity pipeline: classify a handful of comments the three ways the
// paper does (§3.5) — Hatebase-style dictionary ratio, Perspective-style
// model scores (both in-process and over the HTTP API), and the
// three-class SVM — and print them side by side.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"dissenter/internal/hatespeech"
	"dissenter/internal/lexicon"
	"dissenter/internal/perspective"
	"dissenter/internal/toxdict"
)

func main() {
	// A spread of registers. The synthetic dictionary's "slur" category
	// is pseudo-words; pull one so the hateful example actually matches.
	slur := lexicon.Hatebase().WordsByCategory(lexicon.CategorySlur)[0]
	comments := []string{
		"great article, thanks for the insightful report",
		"wake up you sheep, the media is lying about the election again!!",
		"the author is a pathetic liar and a fraud",
		"what a stupid take, damn",
		"the " + slur + " media will destroy our country, deport every " + slur,
		"long live our glorious queen", // dictionary false positive ("queen")
	}

	// 1. Dictionary scorer (§3.5.1): stemmed token ratio.
	dict := toxdict.Default()

	// 2. Perspective over HTTP (§3.5.2): the paper "outsources" scoring.
	srv := httptest.NewServer(perspective.Handler())
	defer srv.Close()
	client := perspective.NewClient(srv.URL, srv.Client())

	// 3. NLP classifier (§3.5.3): 3-class SVM with ADASYN.
	fmt.Println("training SVM on synthetic Davidson corpus...")
	clf := hatespeech.Train(hatespeech.SyntheticCorpus(0.05, 1), hatespeech.DefaultTrainConfig())

	fmt.Printf("%-64s %6s %7s %7s %10s\n", "comment", "dict", "severe", "reject", "svm")
	for _, c := range comments {
		scores, err := client.Analyze(context.Background(), c,
			[]perspective.Model{perspective.SevereToxicity, perspective.LikelyToReject})
		if err != nil {
			log.Fatal(err)
		}
		display := c
		if len(display) > 60 {
			display = display[:57] + "..."
		}
		fmt.Printf("%-64s %6.3f %7.3f %7.3f %10s\n",
			display,
			dict.Score(c),
			scores[perspective.SevereToxicity],
			scores[perspective.LikelyToReject],
			clf.Predict(c))
	}

	// The dictionary's ambiguity problem, quantified: "queen" matches.
	res := dict.Classify("long live our glorious queen")
	fmt.Printf("\ndictionary matched %d/%d tokens in the royalist comment (ambiguous term: %q)\n",
		res.HateTokens, res.Tokens, res.Matched[0].Word)
}
