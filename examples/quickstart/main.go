// Quickstart: run the whole reproduction at a tiny scale and print the
// headline numbers. This is the five-minute tour — one call generates a
// synthetic Gab+Dissenter deployment, serves it over loopback HTTP,
// mirrors it with the measurement crawlers, and hands back a Study with
// every analysis of the paper's §4.
package main

import (
	"context"
	"fmt"
	"log"

	"dissenter/internal/perspective"
	"dissenter/internal/repro"
	"dissenter/internal/stats"
)

func main() {
	res, err := repro.Run(context.Background(), repro.Options{
		Scale: 1.0 / 512, // ~200 users, ~3.5k comments; finishes in seconds
		Seed:  1,
	})
	if err != nil {
		log.Fatal(err)
	}

	h := res.Study.Headline()
	fmt.Printf("Crawled %d Dissenter users (%d active), %d comments on %d URLs\n",
		h.Users, h.ActiveUsers, h.Comments, h.URLs)
	fmt.Printf("%.0f%% of accounts joined in Dissenter's first month\n", h.FirstMonthJoins*100)
	fmt.Printf("%d commenters' Gab accounts were deleted, but their comments persist\n",
		h.DeletedGabUsers)

	// Who is hateful? Score every comment with the SEVERE_TOXICITY model.
	sev := stats.NewECDF(res.Study.Scores(perspective.SevereToxicity))
	fmt.Printf("%.0f%% of comments score >= 0.5 on SEVERE_TOXICITY (paper: ~20%%)\n",
		sev.FractionAbove(0.5)*100)

	// The hateful core: mutually-following, prolific, toxic users.
	core := res.Study.HatefulCore(res.Core)
	fmt.Printf("Hateful core: %d users in %d mutual-follow components (largest %d)\n",
		core.TotalUsers, len(core.Components), core.Largest)
}
